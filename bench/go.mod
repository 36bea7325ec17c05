module clockrsm/bench

go 1.24

require clockrsm v0.0.0

replace clockrsm => ../
