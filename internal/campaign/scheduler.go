package campaign

import "time"

// shard is one politeness domain: a FIFO of pending work, an in-flight
// flag enforcing "never two concurrent attempts to one destination",
// and the instant its pace lets the next attempt start.
type shard struct {
	queue    []pendingTask
	inflight bool
	// next is the earliest instant the shard's next attempt may start:
	// its last dispatch plus 1/ShardRate (zero until the first).
	next time.Time
}

// pendingTask is one queued attempt; notBefore is zero for fresh work
// and a future instant for backoff-delayed retries.
type pendingTask struct {
	task      Task
	notBefore time.Time
}

func (s *shard) push(t Task, notBefore time.Time) {
	s.queue = append(s.queue, pendingTask{task: t, notBefore: notBefore})
}

func (s *shard) pushFront(t Task, notBefore time.Time) {
	s.queue = append([]pendingTask{{task: t, notBefore: notBefore}}, s.queue...)
}

// eligible returns the index of the first queue entry whose notBefore
// has passed, or (-1, earliest notBefore) when every entry is still
// backing off.
func (s *shard) eligible(now time.Time) (int, time.Time) {
	var earliest time.Time
	for i, p := range s.queue {
		if !p.notBefore.After(now) {
			return i, time.Time{}
		}
		if earliest.IsZero() || p.notBefore.Before(earliest) {
			earliest = p.notBefore
		}
	}
	return -1, earliest
}

// pop removes and returns the queue entry at idx.
func (s *shard) pop(idx int) Task {
	t := s.queue[idx].task
	s.queue = append(s.queue[:idx], s.queue[idx+1:]...)
	return t
}

// waitingRetry counts queue entries still inside a backoff window.
func (s *shard) waitingRetry(now time.Time) int {
	n := 0
	for _, p := range s.queue {
		if p.notBefore.After(now) {
			n++
		}
	}
	return n
}
