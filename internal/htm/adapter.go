package htm

import "sync"

// Register, BeginWork and ExitWork are the goroutine-per-thread way into a
// region that Engine.Run replaced. They survive as an adapter for
// bench/unit.go alone, which only a benchmark-typed PR may edit; the next
// one moves it to Run and deletes this file (and Config.Virtual, which
// bench/ also still sets). The scheduler is the same: a driver goroutine
// runs vsched.run, and a member's resume/park slots are a channel round trip
// with it where a coroutine's are a switch. This is the one place engine
// state crosses goroutines: exactly one of driver and members runs at a time,
// and those channel round trips are the happens-before edges that make the
// engine's plain fields race-free here (`make race` repeats its test x10).
type adapter struct {
	mu      sync.Mutex // orders the members' arrival in BeginWork
	members []*Thread
	parked  chan struct{} // a member has parked or exited: the driver's turn
}

// Register announces that this thread will join the next region. Call it for
// every member, from the goroutine that then starts them.
func (t *Thread) Register() {
	a := &t.eng.adapter
	if a.parked == nil {
		a.parked = make(chan struct{})
	}
	a.members = append(a.members, t)
	gate := make(chan struct{})
	t.resume = func() { gate <- struct{}{}; <-a.parked }
	t.park = func() bool { a.parked <- struct{}{}; <-gate; return true }
}

// BeginWork is a member goroutine's first call: it returns once the thread
// is elected. The first arrival starts the driver, which opens the region
// when every member has parked here.
func (t *Thread) BeginWork() {
	s, a := t.eng.sched, &t.eng.adapter
	a.mu.Lock()
	if members := a.members; members != nil {
		a.members = nil
		go func() {
			for range members {
				<-a.parked
			}
			s.run(members)
			a.parked <- struct{}{}
		}()
	}
	a.mu.Unlock()
	t.park()
	t.entered = true
}

// ExitWork leaves the region, handing the baton on. The last member out
// waits for the driver to leave the scheduler too.
func (t *Thread) ExitWork() {
	t.entered = false
	s := t.eng.sched
	s.exit(t)
	last := s.next == nil
	t.eng.adapter.parked <- struct{}{}
	if last {
		<-t.eng.adapter.parked
	}
}
