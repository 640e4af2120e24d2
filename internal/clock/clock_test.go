package clock

import (
	"sync"
	"testing"
	"time"
)

func TestWallNow(t *testing.T) {
	w := NewWall()
	before := time.Now()
	got := w.Now()
	after := time.Now()
	if got.Before(before) || got.After(after) {
		t.Fatalf("Wall.Now() = %v, want within [%v, %v]", got, before, after)
	}
}

func TestWallSince(t *testing.T) {
	w := NewWall()
	start := w.Now()
	if d := w.Since(start); d < 0 {
		t.Fatalf("Since returned negative duration %v", d)
	}
}

func TestVirtualAdvance(t *testing.T) {
	start := time.Date(2019, 5, 16, 0, 0, 0, 0, time.UTC)
	v := NewVirtual(start)
	if !v.Now().Equal(start) {
		t.Fatalf("Now() = %v, want %v", v.Now(), start)
	}
	v.Advance(90 * time.Second)
	want := start.Add(90 * time.Second)
	if !v.Now().Equal(want) {
		t.Fatalf("after Advance Now() = %v, want %v", v.Now(), want)
	}
}

func TestVirtualNegativeAdvanceIgnored(t *testing.T) {
	start := time.Unix(1000, 0)
	v := NewVirtual(start)
	v.Advance(-time.Hour)
	if !v.Now().Equal(start) {
		t.Fatalf("negative advance moved the clock to %v", v.Now())
	}
}

func TestVirtualSince(t *testing.T) {
	v := NewVirtual(time.Unix(0, 0))
	mark := v.Now()
	v.Advance(42 * time.Second)
	if d := v.Since(mark); d != 42*time.Second {
		t.Fatalf("Since = %v, want 42s", d)
	}
}

func TestVirtualConcurrentAdvance(t *testing.T) {
	v := NewVirtual(time.Unix(0, 0))
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				v.Advance(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	want := time.Unix(10, 0)
	if !v.Now().Equal(want) {
		t.Fatalf("concurrent advances lost updates: now %v, want %v", v.Now(), want)
	}
}
