package store

import (
	"sync"
	"testing"
	"time"
)

// TestGroupCommitWakesEveryWaiter: concurrent appends group-commit, and
// every Sync returns once its record is durable — also the last waiter of
// a burst, which no later flush would wake if it missed the leader's
// broadcast.
func TestGroupCommitWakesEveryWaiter(t *testing.T) {
	s := openStore(t, t.TempDir())
	l, err := s.Session("main")
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	const bursts, writers = 2000, 8
	for b := 0; b < bursts; b++ {
		var wg sync.WaitGroup
		errs := make(chan error, writers)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := l.Append(OpAppend, "row R x\n", nil); err != nil {
					errs <- err
				}
			}()
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("burst %d: an Append never returned (Sync missed its wakeup)", b)
		}
		close(errs)
		for err := range errs {
			t.Fatalf("burst %d: append: %v", b, err)
		}
	}
	if got, want := l.Seq(), uint64(bursts*writers); got != want {
		t.Fatalf("seq = %d, want %d", got, want)
	}
}
