// Fixtures for the gojoin analyzer: a launched goroutine must signal
// completion — channel send, close, or sync.WaitGroup Done/Wait — so the
// launcher can join it and collect its error.
package fixture

import (
	"fmt"
	"sync"
)

func work() error { return nil }

// fireAndForget launches a goroutine nothing can ever wait for.
func fireAndForget() {
	go func() { // want `goroutine body has no join path`
		_ = work()
	}()
}

// namedDetached launches a package-local function whose body never signals.
func namedDetached() {
	go logForever() // want `goroutine body has no join path`
}

func logForever() {
	for {
		_ = work()
	}
}

// joinedByChannel sends its result on a channel the launcher drains.
func joinedByChannel() error {
	errc := make(chan error, 1)
	go func() {
		errc <- work()
	}()
	return <-errc
}

// joinedByClose signals completion by closing a done channel, deferred so
// every return path signals.
func joinedByClose() {
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = work()
	}()
	<-done
}

// joinedByWaitGroup is the classic fan-out/fan-in shape.
func joinedByWaitGroup(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_ = work()
		}(i)
	}
	wg.Wait()
}

// namedJoined launches a package-local method-free function that closes its
// done channel; resolving the declaration body must clear it.
func namedJoined() {
	go monitor()
	<-monitorDone
}

var monitorDone = make(chan struct{})

func monitor() {
	defer close(monitorDone)
	_ = work()
}

// A launch through a func-typed field bound once to a method value resolves
// to that method's body.
type engine struct {
	launch func()
	done   chan error
}

func newEngine() *engine {
	e := &engine{done: make(chan error, 1)}
	e.launch = e.pass
	return e
}

func (e *engine) pass() { e.done <- work() }

// boundJoined launches a method value that sends its result; it is joined.
func (e *engine) boundJoined() error {
	go e.launch()
	return <-e.done
}

type detachedEngine struct{ launch func() }

func newDetachedEngine() *detachedEngine {
	e := &detachedEngine{}
	e.launch = e.spin
	return e
}

func (e *detachedEngine) spin() { _ = work() }

// boundDetached launches a method value whose body never signals.
func (e *detachedEngine) boundDetached() {
	go e.launch() // want `goroutine body has no join path`
}

// A field that ever holds something other than a same-package method value
// is not resolvable; the analyzer stays silent.
type hookEngine struct{ launch func() }

func (e *hookEngine) setHook(f func()) { e.launch = f }

func (e *hookEngine) run() {
	go e.launch()
}

// crossPackage launches a function whose body is not loaded here; the
// analyzer stays silent rather than guessing.
func crossPackage() {
	go fmt.Println("detached but unresolvable")
}

// reviewedDetached is a process-lifetime goroutine, detached by design.
func reviewedDetached() {
	//mdm:gojoinok -- process-lifetime watcher, never joined by design
	go func() {
		for {
			_ = work()
		}
	}()
}
