// Package lock exercises the lockdisc analyzer: deferred unlocks on
// early-return paths, no blocking operations while a lock is held.
package lock

import (
	"net/http"
	"sync"
	"time"
)

type store struct {
	mu    sync.Mutex
	wg    sync.WaitGroup
	items map[int]int
	ch    chan int
}

// Get is allowed: the deferred unlock covers both returns.
func (s *store) Get(k int) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.items[k]
	if !ok {
		return 0, false
	}
	return v, true
}

// Leaky's early return exits with the mutex held.
func (s *store) Leaky(k int) (int, bool) {
	s.mu.Lock() // want `s\.mu\.Lock\(\) is not released by a deferred Unlock, and a return at line \d+ can exit with it held`
	v, ok := s.items[k]
	if !ok {
		return 0, false
	}
	s.mu.Unlock()
	return v, true
}

// Never locks and walks away.
func (s *store) Never() {
	s.mu.Lock() // want `s\.mu\.Lock\(\) with no matching Unlock in this function`
	s.items[0] = 1
}

// Drain is allowed: the manual unlock releases the mutex before the
// blocking wait (the worker-pool drain idiom), and nothing returns
// early.
func (s *store) Drain() int {
	s.mu.Lock()
	n := len(s.items)
	s.mu.Unlock()
	s.wg.Wait()
	return n
}

func (s *store) WaitsLocked() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.wg.Wait() // want `blocking s\.wg\.Wait\(\) while s\.mu is locked`
}

func (s *store) SendsLocked(v int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ch <- v // want `channel send can block while s\.mu is locked`
}

// TrySend is allowed: a send inside a select with a default case
// never blocks (the service pool's backpressure idiom).
func (s *store) TrySend(v int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case s.ch <- v:
		return true
	default:
		return false
	}
}

func (s *store) SelectLocked() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // want `select with no default can block while s\.mu is locked`
	case v := <-s.ch:
		return v
	}
}

func (s *store) RecvLocked() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return <-s.ch // want `channel receive can block while s\.mu is locked`
}

func (s *store) SleepsLocked() {
	s.mu.Lock()
	defer s.mu.Unlock()
	time.Sleep(time.Millisecond) // want `time\.Sleep while s\.mu is locked`
}

func (s *store) FetchesLocked(c *http.Client, url string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	resp, err := c.Get(url) // want `net/http call Get while s\.mu is locked`
	if err == nil {
		resp.Body.Close()
	}
}
