package serve

import (
	"fmt"
	"runtime/debug"
)

// SinkPanicError is a server's fatal error after its Sink panicked (or
// exited its goroutine with runtime.Goexit) on the delivery goroutine. The
// panic is recovered there and returned from the next Submit, SubmitFrame,
// Drain or Close; completions after the one that panicked are not
// delivered.
type SinkPanicError struct {
	// Value is what the Sink panicked with (nil after runtime.Goexit).
	Value any
	// Stack is the delivery goroutine's stack at the panic.
	Stack []byte
}

func (e *SinkPanicError) Error() string {
	if e.Value == nil {
		return "serve: Sink exited the delivery goroutine (runtime.Goexit)"
	}
	return fmt.Sprintf("serve: Sink panicked: %v", e.Value)
}

// delivery is the Sink stage: one goroutine that calls the Sink on every
// completion, in emission order, while the scheduler scans the next
// quantum. The scheduler hands over one finished batch at a time through a
// FIFO of MaxInflight batches, the same bound as the batches it may hold in
// flight, so the stage keeps at most that many batches of completions and
// the scheduler waits only when the client is a full queue behind. Every
// method but run is called by the scheduler's goroutine.
type delivery struct {
	sink func(Completion)
	// q carries finished batches; a nil batch asks for a flushed signal.
	q       chan []Completion
	flushed chan struct{}
	// done is closed when the goroutine exits; err is written before.
	done chan struct{}
	err  error
	// stopped records that q is closed.
	stopped bool
}

// startDelivery starts the stage's goroutine; stop ends it.
func startDelivery(sink func(Completion), batches int) *delivery {
	d := &delivery{
		sink:    sink,
		q:       make(chan []Completion, batches),
		flushed: make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	go d.run()
	return d
}

// run delivers batches until the queue closes or the Sink panics.
func (d *delivery) run() {
	returned := false
	defer func() {
		if v := recover(); v != nil {
			d.err = &SinkPanicError{Value: v, Stack: debug.Stack()}
		} else if !returned {
			d.err = &SinkPanicError{}
		}
		close(d.done)
	}()
	for batch := range d.q {
		if batch == nil {
			d.flushed <- struct{}{}
			continue
		}
		for _, c := range batch {
			d.sink(c)
		}
	}
	returned = true
}

// send hands one finished batch to the stage, waiting while the queue is
// full; a stage whose Sink failed drops it.
func (d *delivery) send(batch []Completion) {
	select {
	case d.q <- batch:
	case <-d.done:
	}
}

// flush returns once every batch sent so far has returned from the Sink,
// or with the stage's error.
func (d *delivery) flush() error {
	if d.stopped {
		return d.err
	}
	select {
	case d.q <- nil:
	case <-d.done:
		return d.err
	}
	select {
	case <-d.flushed:
		return nil
	case <-d.done:
		return d.err
	}
}

// failed returns the stage's error if its goroutine has ended, without
// waiting.
func (d *delivery) failed() error {
	select {
	case <-d.done:
		return d.err
	default:
		return nil
	}
}

// stop delivers what was sent, ends the goroutine and waits for it. The
// scheduler sends nothing after it: it stops the stage only in Close and
// at the server's first fatal error.
func (d *delivery) stop() {
	if !d.stopped {
		d.stopped = true
		close(d.q)
	}
	<-d.done
}
