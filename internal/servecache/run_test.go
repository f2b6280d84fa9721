package servecache

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// runSource serves runs of level-0 planes of field "f": plane k is the two
// bytes {k, k} with payload k+1. It records every run it is asked for,
// counts fetches per plane, fails the planes in lost, stops after the first
// failed plane when short is set (a source that reads plane by plane), and
// holds every call at gate when there is one.
type runSource struct {
	mu        sync.Mutex
	runs      [][]int
	fetched   map[int]int
	cancelled int
	lost      map[int]error
	short     bool
	gate      chan struct{}
}

func (s *runSource) FetchPlanes(ctx context.Context, run Run) []Plane {
	s.mu.Lock()
	s.runs = append(s.runs, append([]int(nil), run.Planes...))
	s.mu.Unlock()
	if s.gate != nil {
		select {
		case <-s.gate:
		case <-ctx.Done():
			s.mu.Lock()
			s.cancelled++
			s.mu.Unlock()
			return []Plane{{Err: ctx.Err()}}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fetched == nil {
		s.fetched = map[int]int{}
	}
	out := make([]Plane, 0, len(run.Planes))
	for _, k := range run.Planes {
		s.fetched[k]++
		if err := s.lost[k]; err != nil {
			out = append(out, Plane{Payload: 1, Err: err})
			if s.short {
				break
			}
			continue
		}
		out = append(out, Plane{Raw: []byte{byte(k), byte(k)}, Payload: int64(k + 1)})
	}
	return out
}

// calls returns the runs the source has been asked for so far.
func (s *runSource) calls() [][]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([][]int(nil), s.runs...)
}

// cancels returns how many calls ended because their fetch ctx did.
func (s *runSource) cancels() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cancelled
}

// planesRun is the run of the given level-0 planes of field "f".
func planesRun(planes ...int) Run { return Run{Field: "f", Planes: planes} }

// checkPlanes requires got to be the verdicts of a healthy fetch of planes.
func checkPlanes(t *testing.T, who string, got []Plane, planes ...int) {
	t.Helper()
	if len(got) != len(planes) {
		t.Fatalf("%s: %d verdicts for %d planes", who, len(got), len(planes))
	}
	for i, k := range planes {
		if got[i].Err != nil || !reflect.DeepEqual(got[i].Raw, []byte{byte(k), byte(k)}) || got[i].Payload != int64(k+1) {
			t.Fatalf("%s: plane %d verdict = %+v, want its bitset and payload %d", who, k, got[i], k+1)
		}
	}
}

// flightWaiters returns the waiter count of plane k's flight, -1 when the
// plane is not in flight.
func flightWaiters(c *Cache, k int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.flights[Key{Field: "f", Plane: k}]; ok {
		return f.waiters
	}
	return -1
}

// TestRunOverlapFetchesEachPlaneOnce is the singleflight contract for runs
// under -race: two callers whose runs overlap partially trigger exactly one
// fetch per plane — the second joins the planes the first is fetching and
// leads one source call for the rest — and both get every plane.
func TestRunOverlapFetchesEachPlaneOnce(t *testing.T) {
	c := New(0)
	src := &runSource{gate: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	var first, second []Plane
	wg.Add(1)
	go func() {
		defer wg.Done()
		first = c.Get(ctx, planesRun(0, 1, 2, 3, 4, 5), src)
	}()
	waitFor(t, func() bool { return len(src.calls()) == 1 })
	wg.Add(1)
	go func() {
		defer wg.Done()
		second = c.Get(ctx, planesRun(3, 4, 5, 6, 7, 8), src)
	}()
	waitFor(t, func() bool { return len(src.calls()) == 2 })
	close(src.gate)
	wg.Wait()

	checkPlanes(t, "first", first, 0, 1, 2, 3, 4, 5)
	checkPlanes(t, "second", second, 3, 4, 5, 6, 7, 8)
	if got, want := src.calls(), [][]int{{0, 1, 2, 3, 4, 5}, {6, 7, 8}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("source was asked for %v, want %v: the overlap must be joined, the rest one call", got, want)
	}
	for k := 0; k <= 8; k++ {
		if src.fetched[k] != 1 {
			t.Fatalf("plane %d fetched %d times, want 1", k, src.fetched[k])
		}
	}
	if st := c.Stats(); st.Misses != 9 || st.Coalesced != 3 || st.Hits != 0 || st.Entries != 9 {
		t.Fatalf("stats = %+v, want 9 misses, 3 coalesced, 9 entries", st)
	}
	// Everything is cached now: a run across both is all hits, no call.
	third := c.Get(ctx, planesRun(8, 0, 4), src)
	checkPlanes(t, "third", third, 8, 0, 4)
	for i, p := range third {
		if !p.Hit {
			t.Fatalf("third: verdict %d is not a hit", i)
		}
	}
	if len(src.calls()) != 2 {
		t.Fatalf("a run of cached planes reached the source: %v", src.calls())
	}
}

// TestRunCancelledWaiterKeepsSharedPlanes pins cancellation for runs: a
// leader whose ctx ends detaches from its whole run and gets ctx's error,
// planes nobody else wants are unregistered, but the fetch keeps running for
// the planes another waiter joined — and is cancelled only when that waiter
// leaves too.
func TestRunCancelledWaiterKeepsSharedPlanes(t *testing.T) {
	for _, survivorStays := range []bool{true, false} {
		t.Run(fmt.Sprintf("survivorStays=%v", survivorStays), func(t *testing.T) {
			c := New(0)
			src := &runSource{gate: make(chan struct{})}
			leaderCtx, leaderCancel := context.WithCancel(context.Background())
			defer leaderCancel()
			survCtx, survCancel := context.WithCancel(context.Background())
			defer survCancel()
			var leader, survivor []Plane
			leaderDone, survDone := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(leaderDone)
				leader = c.Get(leaderCtx, planesRun(0, 1, 2, 3), src)
			}()
			waitFor(t, func() bool { return len(src.calls()) == 1 })
			go func() {
				defer close(survDone)
				survivor = c.Get(survCtx, planesRun(2, 3), src)
			}()
			waitFor(t, func() bool { return flightWaiters(c, 2) == 2 && flightWaiters(c, 3) == 2 })

			leaderCancel()
			<-leaderDone
			if !errors.Is(leader[0].Err, context.Canceled) {
				t.Fatalf("cancelled leader's first verdict = %+v, want its ctx error", leader[0])
			}
			for i := 1; i < 4; i++ {
				if !errors.Is(leader[i].Err, ErrSkipped) {
					t.Fatalf("cancelled leader's verdict %d = %+v, want ErrSkipped", i, leader[i])
				}
			}
			if flightWaiters(c, 0) != -1 || flightWaiters(c, 1) != -1 {
				t.Fatal("planes only the cancelled leader wanted are still registered")
			}
			if flightWaiters(c, 2) != 1 || flightWaiters(c, 3) != 1 {
				t.Fatalf("shared planes have %d and %d waiters, want the survivor's 1", flightWaiters(c, 2), flightWaiters(c, 3))
			}
			if src.cancels() != 0 {
				t.Fatal("the fetch was cancelled while a survivor still waited for two of its planes")
			}
			if !survivorStays {
				survCancel()
				<-survDone
				if !errors.Is(survivor[0].Err, context.Canceled) {
					t.Fatalf("cancelled survivor's first verdict = %+v", survivor[0])
				}
				waitFor(t, func() bool { return src.cancels() == 1 })
				if st := c.Stats(); st.Detached != 2 {
					t.Fatalf("Detached = %d, want 2", st.Detached)
				}
				return
			}
			close(src.gate)
			<-survDone
			checkPlanes(t, "survivor", survivor, 2, 3)
			if len(src.calls()) != 1 {
				t.Fatalf("source calls = %v, want the leader's one", src.calls())
			}
			// The abandoned planes landed too and were cached for later.
			waitFor(t, func() bool { return c.Len() == 4 })
		})
	}
}

// TestRunVerdictsArePerPlane pins per-plane truth: when a source that gives
// every plane its own verdict loses one plane of a run, the caller gets the
// prefix, that plane's error, and — their bytes moved — the planes fetched
// above it; a caller that joined only a later plane never sees the error.
func TestRunVerdictsArePerPlane(t *testing.T) {
	c := New(0)
	lost := errors.New("plane 2 is gone")
	src := &runSource{gate: make(chan struct{}), lost: map[int]error{2: lost}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var whole, tail []Plane
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		whole = c.Get(ctx, planesRun(0, 1, 2, 3, 4), src)
	}()
	waitFor(t, func() bool { return len(src.calls()) == 1 })
	wg.Add(1)
	go func() {
		defer wg.Done()
		tail = c.Get(ctx, planesRun(3), src)
	}()
	waitFor(t, func() bool { return flightWaiters(c, 3) == 2 })
	close(src.gate)
	wg.Wait()

	checkPlanes(t, "prefix", whole[:2], 0, 1)
	if !errors.Is(whole[2].Err, lost) || whole[2].Payload != 1 {
		t.Fatalf("lost plane verdict = %+v, want its error and the 1 byte the failed fetch moved", whole[2])
	}
	checkPlanes(t, "above the lost plane", whole[3:], 3, 4)
	checkPlanes(t, "joined tail", tail, 3)
	if got := c.Len(); got != 4 {
		t.Fatalf("%d planes cached, want the 4 that arrived", got)
	}
	// The error was not cached: the lost plane is asked for again, alone.
	again := c.Get(ctx, planesRun(1, 2), src)
	if !again[0].Hit || !errors.Is(again[1].Err, lost) {
		t.Fatalf("second ask = %+v, want a hit and the error again", again)
	}
	if got, want := src.calls(), [][]int{{0, 1, 2, 3, 4}, {2}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("source was asked for %v, want %v", got, want)
	}
}

// TestRunShortSourceIsAskedAgain covers a source that reads plane by plane
// and stops at the first failure: the leader gets ErrSkipped for the planes
// never attempted and does not read on, while a caller that joined one of
// them asks for it again — its own fetch, its own verdict — instead of
// inheriting the failed plane's error.
func TestRunShortSourceIsAskedAgain(t *testing.T) {
	c := New(0)
	lost := errors.New("plane 1 is gone")
	src := &runSource{gate: make(chan struct{}), lost: map[int]error{1: lost}, short: true}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var whole, tail []Plane
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		whole = c.Get(ctx, planesRun(0, 1, 2, 3), src)
	}()
	waitFor(t, func() bool { return len(src.calls()) == 1 })
	wg.Add(1)
	go func() {
		defer wg.Done()
		tail = c.Get(ctx, planesRun(3), src)
	}()
	waitFor(t, func() bool { return flightWaiters(c, 3) == 2 })
	close(src.gate)
	wg.Wait()

	checkPlanes(t, "prefix", whole[:1], 0)
	if !errors.Is(whole[1].Err, lost) {
		t.Fatalf("lost plane verdict = %+v", whole[1])
	}
	for i := 2; i < 4; i++ {
		if !errors.Is(whole[i].Err, ErrSkipped) || whole[i].Payload != 0 {
			t.Fatalf("unattempted plane %d verdict = %+v, want ErrSkipped and no bytes", i, whole[i])
		}
	}
	checkPlanes(t, "joined tail", tail, 3)
	if got, want := src.calls(), [][]int{{0, 1, 2, 3}, {3}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("source was asked for %v, want %v: plane 2, which nobody still wanted, must not be read", got, want)
	}
	if src.fetched[2] != 0 || src.fetched[3] != 1 {
		t.Fatalf("fetch counts %v, want plane 2 never and plane 3 once", src.fetched)
	}
}

// TestNilCacheFetchesStraightFromSource pins the nil-receiver convention a
// session without a shared cache relies on: no entries, no flights, the
// source's verdicts as they are, ErrSkipped for what it did not attempt.
func TestNilCacheFetchesStraightFromSource(t *testing.T) {
	var c *Cache
	lost := errors.New("gone")
	src := &runSource{lost: map[int]error{1: lost}, short: true}
	got := c.Get(context.Background(), planesRun(0, 1, 2), src)
	checkPlanes(t, "prefix", got[:1], 0)
	if !errors.Is(got[1].Err, lost) || !errors.Is(got[2].Err, ErrSkipped) {
		t.Fatalf("verdicts = %+v, want the error then ErrSkipped", got)
	}
	if got := c.Get(context.Background(), planesRun(0), src); got[0].Hit {
		t.Fatal("a nil cache reported a hit")
	}
	if len(src.calls()) != 2 {
		t.Fatalf("source calls = %v, want one per Get", src.calls())
	}
}
