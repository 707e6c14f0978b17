// Package testkit holds the one helper the validation tests of several
// layers share.
package testkit

import (
	"testing"
	"time"
)

// Deadline runs f and returns its error, turning a call that would hang
// the suite into a failed test. f gets a stop channel: if it has not
// returned after d the channel is closed — the serving layers take it as
// their Interrupt, which cuts the arrival stream so a wedged run stops
// admitting work — and if f is still running a further d later the test
// fails and f's goroutine is abandoned.
func Deadline(t testing.TB, d time.Duration, f func(stop <-chan struct{}) error) error {
	t.Helper()
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- f(stop) }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
	}
	close(stop)
	select {
	case err := <-done:
		t.Errorf("still running after %v (returned once told to stop)", d)
		return err
	case <-time.After(d):
		t.Fatalf("still running %v after being told to stop; abandoned", d)
		return nil
	}
}
