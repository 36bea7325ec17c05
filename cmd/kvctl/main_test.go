package main

import "testing"

func TestBuildLine(t *testing.T) {
	tests := []struct {
		args    []string
		want    string
		wantErr bool
	}{
		{[]string{"members"}, "MEMBERS", false},
		{[]string{"epoch"}, "EPOCH", false},
		{[]string{"STATUS"}, "STATUS", false},
		{[]string{"routes"}, "ROUTES", false},
		{[]string{"heal"}, "HEAL", false},
		{[]string{"split", "g0", "g2"}, "SPLIT g0 g2", false},
		{[]string{"reconf", "0,1,2"}, "RECONF 0,1,2", false},
		{[]string{"reconf", "0", "1", "2"}, "RECONF 0,1,2", false},
		{[]string{"reconf", "r0,r1", "r2"}, "RECONF r0,r1,r2", false},
		{[]string{"members", "x"}, "", true},
		{[]string{"split", "g0"}, "", true},
		{[]string{"reconf"}, "", true},
		{[]string{"reconf", ","}, "", true},
		{[]string{"put", "k", "v"}, "", true}, // data verbs are client calls, not admin lines
		{[]string{"bogus"}, "", true},
		{nil, "", true},
	}
	for _, tt := range tests {
		got, err := buildLine(tt.args)
		if (err != nil) != tt.wantErr {
			t.Errorf("buildLine(%v) error = %v, wantErr %v", tt.args, err, tt.wantErr)
			continue
		}
		if got != tt.want {
			t.Errorf("buildLine(%v) = %q, want %q", tt.args, got, tt.want)
		}
	}
}

// TestParseRequestUsage: every malformed invocation fails before
// anything is dialed.
func TestParseRequestUsage(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"bogus"},
		{"put", "k"},
		{"del"},
		{"del", "k", "x"},
		{"get"},
		{"get", "-level=lin"},
		{"get", "-level=lin", "k", "extra"},
		{"get", "-level=bogus", "k"},
		{"get", "-maxage=100ms", "k"},
		{"get", "-level=lin", "-maxage=100ms", "k"},
		{"get", "-level=stale", "-maxage=nonsense", "k"},
		{"members", "x"},
	} {
		if _, err := parseRequest(args); err == nil {
			t.Errorf("parseRequest(%q) accepted a malformed invocation", args)
		}
	}
}
