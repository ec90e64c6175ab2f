package core

import (
	"context"
	"errors"
	"fmt"
)

// ErrInterrupted is the sentinel matched by errors.Is when a solve was
// stopped by context cancellation or deadline. The concrete error in
// the chain is *InterruptedError, which carries the best-so-far state.
var ErrInterrupted = errors.New("core: solve interrupted")

// ErrInvalidModel is the sentinel matched by errors.Is when a request
// is rejected at the Solve boundary for a warm start that does not
// match the model. (The model itself cannot be invalid: non-finite or
// asymmetric couplings never leave ising.Builder.Build.)
var ErrInvalidModel = errors.New("core: invalid model")

// InterruptedError reports a solve stopped by its context. It is not a
// failure so much as a receipt: Outcome holds the best state and
// partial ledger reached by the interruption point, and for engines
// with durable state (the multichip modes) Checkpoint holds encoded
// resume bytes that Request.Resume accepts.
type InterruptedError struct {
	// Outcome is the partial result: always non-nil, always internally
	// consistent (spins, energy, whatever ledger the engine filled).
	Outcome *Outcome
	// Checkpoint is the serialized resume state, or nil for engines
	// whose state is not worth more than their best-so-far spins.
	Checkpoint []byte
	// Cause is the context error (context.Canceled or
	// context.DeadlineExceeded).
	Cause error
}

// Error describes the interruption.
func (e *InterruptedError) Error() string {
	what := "solve interrupted"
	if e.Checkpoint != nil {
		what = "solve interrupted (checkpoint available)"
	}
	return fmt.Sprintf("core: %s: %v", what, e.Cause)
}

// Unwrap exposes the context error.
func (e *InterruptedError) Unwrap() error { return e.Cause }

// Is matches ErrInterrupted as well as the underlying context error.
func (e *InterruptedError) Is(target error) bool { return target == ErrInterrupted }

// PanicError reports an engine panic that the Solve boundary converted
// into an error instead of unwinding the caller. A panic here means an
// internal invariant broke — the error exists so long-running drivers
// (sweeps, services) can log it with its stack and move on rather than
// die.
type PanicError struct {
	// Engine is the solver kind that panicked.
	Engine Kind
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

// Error describes the panic.
func (e *PanicError) Error() string {
	return fmt.Sprintf("core: engine %s panicked: %v", e.Engine, e.Value)
}

// isCtxErr reports whether err is a context cancellation/deadline —
// the class that yields an InterruptedError rather than a failure.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
