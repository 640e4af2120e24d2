package audit

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// TestPipelineStress exercises every moving part of the pipeline at once —
// concurrent appenders across policies, queries racing the drainer, stat
// snapshots, and a Close racing it all — primarily for the CI race job
// (`go test -race ./...`).
func TestPipelineStress(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mode   SyncMode
		policy Backpressure
	}{
		{"batched-block", SyncBatched, BackpressureBlock},
		{"strict-block", SyncEveryOp, BackpressureBlock},
		{"none-drop", SyncNone, BackpressureDrop},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := Open(Options{
				Path:         filepath.Join(t.TempDir(), "audit.log"),
				Mode:         tc.mode,
				QueueDepth:   64,
				Backpressure: tc.policy,
				MaskKey:      []byte("stress-mask"),
			})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			stop := make(chan struct{})
			// Appenders.
			for i := 0; i < 6; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						_, err := tr.Append(Record{Actor: "stress", Op: "SET", Key: "k", Owner: "o", Outcome: OutcomeOK})
						if err != nil && !errors.Is(err, ErrDropped) {
							if errors.Is(err, ErrClosed) {
								return
							}
							t.Errorf("append: %v", err)
							return
						}
					}
				}()
			}
			// Readers racing the drainer.
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if _, err := tr.Query(Filter{Owner: "o"}); err != nil &&
							!errors.Is(err, ErrDrainTimeout) {
							t.Errorf("query: %v", err)
							return
						}
						_ = tr.Stats()
					}
				}()
			}
			time.Sleep(30 * time.Millisecond)
			if err := tr.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			close(stop)
			wg.Wait()
			st := tr.Stats()
			if st.Processed != st.Enqueued {
				t.Fatalf("processed %d != enqueued %d after close", st.Processed, st.Enqueued)
			}
		})
	}
}
