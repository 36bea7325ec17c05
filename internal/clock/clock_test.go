package clock

import (
	"sync"
	"testing"
	"time"
)

func TestSystemAdvances(t *testing.T) {
	c := System{}
	a := c.Now()
	time.Sleep(time.Millisecond)
	b := c.Now()
	if b <= a {
		t.Errorf("system clock did not advance: %d then %d", a, b)
	}
}

func TestMonotonicStrictlyIncreases(t *testing.T) {
	man := NewManual(100)
	m := NewMonotonic(man)
	a := m.Now()
	b := m.Now() // source unchanged; must still increase
	if b <= a {
		t.Errorf("monotonic returned %d after %d", b, a)
	}
	man.Advance(-50) // step backwards
	c := m.Now()
	if c <= b {
		t.Errorf("monotonic went backwards after source step: %d after %d", c, b)
	}
	man.Set(10_000)
	d := m.Now()
	if d != 10_000 {
		t.Errorf("monotonic did not follow source forward: got %d", d)
	}
}

func TestMonotonicConcurrent(t *testing.T) {
	m := NewMonotonic(NewManual(0))
	const goroutines, per = 8, 200
	var mu sync.Mutex
	seen := make(map[int64]bool, goroutines*per)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				v := m.Now()
				mu.Lock()
				if seen[v] {
					t.Errorf("duplicate timestamp %d", v)
					mu.Unlock()
					return
				}
				seen[v] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

func TestManual(t *testing.T) {
	m := NewManual(7)
	if m.Now() != 7 {
		t.Fatalf("manual start = %d", m.Now())
	}
	m.Advance(3)
	if m.Now() != 10 {
		t.Fatalf("after advance = %d", m.Now())
	}
	m.Set(2)
	if m.Now() != 2 {
		t.Fatalf("after set = %d", m.Now())
	}
}

func TestFuncAdapter(t *testing.T) {
	var n int64
	c := Func(func() int64 { n++; return n })
	if c.Now() != 1 || c.Now() != 2 {
		t.Error("Func adapter did not pass through")
	}
}
