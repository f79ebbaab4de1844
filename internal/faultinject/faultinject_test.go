package faultinject

import (
	"context"
	"errors"
	"testing"
	"time"
)

// The suite's synthetic sites, declared up front like production packages
// declare theirs.
var _ = Register("site.a", "site.once", "site.fail", "site.stall", "site.scoped")

func TestFaultInjectionPanicAfterN(t *testing.T) {
	FailOnLeak(t)
	Arm(t, "site.a", Fault{Kind: Panic, After: 2, Message: "boom"})
	Hit("site.a")
	Hit("site.a")
	panicked := func() (p any) {
		defer func() { p = recover() }()
		Hit("site.a")
		return nil
	}()
	inj, ok := panicked.(*Injected)
	if !ok {
		t.Fatalf("expected *Injected panic on 3rd visit, got %v", panicked)
	}
	if inj.Site != "site.a" || inj.Message != "boom" {
		t.Fatalf("wrong payload: %+v", inj)
	}
	if got := Triggers("site.a"); got != 1 {
		t.Fatalf("triggers = %d, want 1", got)
	}
}

func TestFaultInjectionOnceDisarms(t *testing.T) {
	FailOnLeak(t)
	Arm(t, "site.once", Fault{Kind: Fail, Once: true})
	if err := ErrAt("site.once"); err == nil {
		t.Fatal("first visit should fail")
	}
	if err := ErrAt("site.once"); err != nil {
		t.Fatalf("Once fault fired twice: %v", err)
	}
	if enabled.Load() {
		t.Fatal("fast-path flag still set after last fault disarmed")
	}
}

func TestFaultInjectionErrAtMatchesErrorsAs(t *testing.T) {
	FailOnLeak(t)
	Arm(t, "site.fail", Fault{Kind: Fail, Message: "no memory"})
	err := ErrAt("site.fail")
	var inj *Injected
	if !errors.As(err, &inj) {
		t.Fatalf("errors.As failed on %v", err)
	}
	if inj.Site != "site.fail" {
		t.Fatalf("wrong site %q", inj.Site)
	}
	// Panic faults must not leak through the error hook.
	Arm(t, "site.fail", Fault{Kind: Panic})
	if err := ErrAt("site.fail"); err != nil {
		t.Fatalf("panic fault returned error: %v", err)
	}
}

func TestFaultInjectionStallSleeps(t *testing.T) {
	FailOnLeak(t)
	Arm(t, "site.stall", Fault{Kind: Stall, Stall: 20 * time.Millisecond})
	start := time.Now()
	Hit("site.stall")
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("stall returned after %v", d)
	}
}

// TestFaultInjectionStallEndsOnCancel: a long stall holds a HitCtx visitor
// until its context is cancelled, then returns at once.
func TestFaultInjectionStallEndsOnCancel(t *testing.T) {
	FailOnLeak(t)
	Arm(t, "site.stall", Fault{Kind: Stall, Stall: 30 * time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		HitCtx(ctx, "site.stall")
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("stall ended before its context was cancelled")
	case <-time.After(20 * time.Millisecond):
	}
	start := time.Now()
	cancel()
	<-done
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("stall outlived its cancelled context by %v", d)
	}
}

func TestFaultInjectionDisableAndReset(t *testing.T) {
	defer Reset()
	Enable("site.x", Fault{Kind: Fail})
	Enable("site.y", Fault{Kind: Fail})
	Disable("site.x")
	if err := ErrAt("site.x"); err != nil {
		t.Fatal("disabled site still fires")
	}
	if err := ErrAt("site.y"); err == nil {
		t.Fatal("unrelated site disarmed by Disable")
	}
	Reset()
	if err := ErrAt("site.y"); err != nil {
		t.Fatal("Reset left site armed")
	}
	if enabled.Load() {
		t.Fatal("fast-path flag set after Reset")
	}
}

func TestFaultInjectionUnarmedIsFree(t *testing.T) {
	FailOnLeak(t)
	// No faults armed: hooks must be no-ops (this also guards -count=2
	// determinism — earlier tests disarm on exit).
	Hit("never.armed")
	if err := ErrAt("never.armed"); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestArmAutoDisarms(t *testing.T) {
	FailOnLeak(t)
	t.Run("inner", func(t *testing.T) {
		Arm(t, "site.scoped", Fault{Kind: Fail})
		if err := ErrAt("site.scoped"); err == nil {
			t.Fatal("armed fault did not fire")
		}
	})
	// The subtest's cleanup must have disarmed the site.
	if err := ErrAt("site.scoped"); err != nil {
		t.Fatalf("Arm leaked past its test scope: %v", err)
	}
	if got := Armed(); len(got) != 0 {
		t.Fatalf("armed sites after subtest: %v", got)
	}
}

// fakeTB records Errorf calls and runs cleanups on demand, standing in for
// a *testing.T that is ending.
type fakeTB struct {
	errors   []string
	cleanups []func()
}

func (f *fakeTB) Helper()                           {}
func (f *fakeTB) Cleanup(fn func())                 { f.cleanups = append(f.cleanups, fn) }
func (f *fakeTB) Errorf(format string, args ...any) { f.errors = append(f.errors, format) }
func (f *fakeTB) finish() {
	for i := len(f.cleanups) - 1; i >= 0; i-- {
		f.cleanups[i]()
	}
}

func TestFaultInjectionArmRejectsUnregisteredSite(t *testing.T) {
	FailOnLeak(t)
	tb := &fakeTB{}
	Arm(tb, "site.tpyo", Fault{Kind: Fail})
	if len(tb.errors) == 0 {
		t.Fatal("Arm accepted an unregistered site name")
	}
	if len(Armed()) != 0 {
		t.Fatalf("unregistered site was armed anyway: %v", Armed())
	}
	if err := ErrAt("site.tpyo"); err != nil {
		t.Fatalf("unregistered site fires: %v", err)
	}
	tb.finish()

	// Registration survives Reset: production registrations are made once
	// per process, but Reset runs between tests.
	Reset()
	if !Registered("site.a") {
		t.Fatal("Reset cleared the site registry")
	}
}

func TestFailOnLeakCatchesArmedFault(t *testing.T) {
	defer Reset()
	tb := &fakeTB{}
	FailOnLeak(tb)
	Enable("site.leak", Fault{Kind: Fail}) // deliberately not via Arm
	tb.finish()
	if len(tb.errors) == 0 {
		t.Fatal("FailOnLeak did not flag the armed fault")
	}
	if len(Armed()) != 0 {
		t.Fatal("FailOnLeak did not reset the leaked fault")
	}

	// A clean test must pass the leak check silently.
	tb = &fakeTB{}
	FailOnLeak(tb)
	tb.finish()
	if len(tb.errors) != 0 {
		t.Fatalf("leak check failed a clean test: %v", tb.errors)
	}
}
