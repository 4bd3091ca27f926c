package fault

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestParseRoundTrip(t *testing.T) {
	specs := []string{
		"rank1:drop@3",
		"rank0:delay@2:5ms",
		"rank1:fail@2x3",
		"rank0:panic@4:generate",
		"rank1:panic@0:process;rank0:panic@1:update",
		"rank1:drop@3;rank0:delay@2:5ms,rank1:fail@7x2",
	}
	for _, spec := range specs {
		p, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		again, err := Parse(p.String())
		if err != nil {
			t.Fatalf("Parse(String(%q)) = %q: %v", spec, p.String(), err)
		}
		if len(again.Events) != len(p.Events) {
			t.Fatalf("round trip of %q lost events: %v vs %v", spec, p, again)
		}
		for i := range p.Events {
			if !reflect.DeepEqual(p.Events[i], again.Events[i]) {
				t.Errorf("round trip of %q: event %d: %+v != %+v", spec, i, p.Events[i], again.Events[i])
			}
		}
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	for _, spec := range []string{
		"drop@3",               // no rank
		"rank-2:drop@3",        // negative rank
		"rank0:drop@-1",        // negative step
		"rank0:explode@3",      // unknown kind
		"rank0:panic@3",        // panic without phase
		"rank0:panic@3:sleep",  // unknown phase
		"rank0:delay@3",        // delay without duration
		"rank0:delay@3:banana", // bad duration
		"rank0:fail@1xq",       // bad fail count
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted garbage", spec)
		}
	}
}

func TestParseEmptyIsEmptyPlan(t *testing.T) {
	p, err := Parse("  ")
	if err != nil || len(p.Events) != 0 {
		t.Fatalf("Parse(blank) = %v, %v", p, err)
	}
}

func TestInjectorQueries(t *testing.T) {
	p, err := Parse("rank1:drop@3;rank0:delay@2:1ms;rank1:fail@5x2;rank0:panic@4:process")
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInjector(p)
	if err != nil {
		t.Fatal(err)
	}
	if !in.Drop(1, 3) || in.Drop(0, 3) || in.Drop(1, 2) {
		t.Error("Drop matching wrong")
	}
	if in.Delay(0, 2) != time.Millisecond || in.Delay(1, 2) != 0 {
		t.Error("Delay matching wrong")
	}
	if !in.LinkFails(1, 5, 0) || !in.LinkFails(1, 5, 1) || in.LinkFails(1, 5, 2) {
		t.Error("LinkFails should fail attempts 0,1 and pass attempt 2")
	}
	if in.LinkFails(0, 5, 0) || in.LinkFails(1, 4, 0) {
		t.Error("LinkFails matched wrong rank/step")
	}
	if in.PanicNow(0, 4, PhaseGenerate) || in.PanicNow(1, 4, PhaseProcess) {
		t.Error("PanicNow matched wrong phase/rank")
	}
	if !in.PanicNow(0, 4, PhaseProcess) {
		t.Error("PanicNow missed its event")
	}
	if in.PanicNow(0, 4, PhaseProcess) {
		t.Error("PanicNow fired twice")
	}
}

func TestPanicNowFiresExactlyOnceUnderConcurrency(t *testing.T) {
	in, err := NewInjector(Plan{Events: []Event{{Rank: 0, Step: 1, Kind: KindPanic, Phase: PhaseUpdate}}})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 32
	var wg sync.WaitGroup
	fired := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if in.PanicNow(0, 1, PhaseUpdate) {
					fired <- struct{}{}
				}
			}
		}()
	}
	wg.Wait()
	if n := len(fired); n != 1 {
		t.Fatalf("panic event fired %d times, want 1", n)
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if in.Drop(0, 0) || in.Delay(0, 0) != 0 || in.LinkFails(0, 0, 0) || in.PanicNow(0, 0, PhaseGenerate) {
		t.Error("nil injector injected something")
	}
}

func TestRandomPlanDeterministic(t *testing.T) {
	a := Random(42, 10, 8)
	b := Random(42, 10, 8)
	if len(a.Events) != 8 || len(b.Events) != 8 {
		t.Fatalf("wrong event counts: %d, %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if !reflect.DeepEqual(a.Events[i], b.Events[i]) {
			t.Fatalf("same seed diverged at event %d: %+v vs %+v", i, a.Events[i], b.Events[i])
		}
	}
	if err := a.Validate(); err != nil {
		t.Errorf("random plan invalid: %v", err)
	}
	c := Random(43, 10, 8)
	same := true
	for i := range a.Events {
		if !reflect.DeepEqual(a.Events[i], c.Events[i]) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical plans")
	}
}

func TestParseDiskFaults(t *testing.T) {
	for _, spec := range []string{
		"rank0:iofail@3:write",
		"rank0:iofail@3:sync",
		"rank0:iofail@3:rename",
		"rank0:torn@2",
		"rank0:torn@2;rank0:iofail@3:sync;rank1:drop@4",
	} {
		p, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		again, err := Parse(p.String())
		if err != nil {
			t.Fatalf("Parse(String(%q)) = %q: %v", spec, p.String(), err)
		}
		for i := range p.Events {
			if !reflect.DeepEqual(p.Events[i], again.Events[i]) {
				t.Errorf("round trip of %q: event %d: %+v != %+v", spec, i, p.Events[i], again.Events[i])
			}
		}
	}
}

func TestParseDiskFaultGarbage(t *testing.T) {
	for _, spec := range []string{
		"rank0:iofail@3",       // no operation
		"rank0:iofail@3:flush", // unknown operation
		"rank0:torn@2:write",   // torn takes no operation
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted garbage", spec)
		}
	}
}

func TestInjectorDiskQueries(t *testing.T) {
	p, err := Parse("rank0:iofail@3:sync;rank0:torn@2")
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInjector(p)
	if err != nil {
		t.Fatal(err)
	}
	if !in.IOFails(0, 3, OpSync) {
		t.Error("IOFails missed its event")
	}
	// iofail is persistent: the storage path stays broken for that step.
	if !in.IOFails(0, 3, OpSync) {
		t.Error("IOFails should keep firing for the same step")
	}
	if in.IOFails(0, 3, OpWrite) || in.IOFails(1, 3, OpSync) || in.IOFails(0, 2, OpSync) {
		t.Error("IOFails matched wrong op/rank/step")
	}
	if in.TornWrite(0, 3) || in.TornWrite(1, 2) {
		t.Error("TornWrite matched wrong rank/step")
	}
	if !in.TornWrite(0, 2) {
		t.Error("TornWrite missed its event")
	}
	// torn is one-shot: a retried commit of the same step succeeds.
	if in.TornWrite(0, 2) {
		t.Error("TornWrite fired twice")
	}
	var nilIn *Injector
	if nilIn.IOFails(0, 3, OpSync) || nilIn.TornWrite(0, 2) {
		t.Error("nil injector should be inert for disk faults")
	}
}

func TestParseHealingFaults(t *testing.T) {
	for _, spec := range []string{
		"rank1:flaky@3x2",
		"rank1:flaky@3", // down-window defaults to 1
		"rank0:recover@5",
		"rank1:flaky@2x1;rank1:drop@6",
		"rank1:drop@3;rank1:recover@5",
	} {
		p, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("Validate(%q): %v", spec, err)
		}
		again, err := Parse(p.String())
		if err != nil {
			t.Fatalf("Parse(String(%q)) = %q: %v", spec, p.String(), err)
		}
		if len(again.Events) != len(p.Events) {
			t.Fatalf("round trip of %q lost events", spec)
		}
	}
	// The bare form normalizes to an explicit x1 window.
	p, _ := Parse("rank1:flaky@3")
	if got := p.String(); got != "rank1:flaky@3x1" {
		t.Errorf("String() = %q, want rank1:flaky@3x1", got)
	}
}

func TestParseHealingFaultGarbage(t *testing.T) {
	for _, spec := range []string{
		"rank1:flaky@3xq",  // bad down-window
		"rank1:recover@-1", // negative step
		"rank-1:recover@5", // negative rank
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted garbage", spec)
		}
	}
	// Ranks beyond the classic CPU+MIC pair are valid: N-rank device groups
	// address any non-negative rank.
	if _, err := Parse("rank3:recover@5"); err != nil {
		t.Errorf("Parse(rank3:recover@5) rejected an N-rank event: %v", err)
	}
	if err := (Event{Rank: 1, Step: 3, Kind: KindFlaky, Times: -2}).Validate(); err == nil {
		t.Error("Validate accepted a negative flaky down-window")
	}
}

func TestFlakyDropsLikeDrop(t *testing.T) {
	p, err := Parse("rank1:flaky@3x2")
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInjector(p)
	if err != nil {
		t.Fatal(err)
	}
	if !in.Drop(1, 3) {
		t.Error("flaky did not kill the rank at its step")
	}
	if in.Drop(1, 4) || in.Drop(0, 3) {
		t.Error("flaky matched the wrong step/rank")
	}
}

func TestRecoverStepPairsWithItsOwnFailure(t *testing.T) {
	p, err := Parse("rank1:flaky@3x2")
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInjector(p)
	if err != nil {
		t.Fatal(err)
	}
	// Down for supersteps 3 and 4, recoverable from 5 on.
	if got := in.RecoverStep(1, 3); got != 5 {
		t.Errorf("RecoverStep(1, 3) = %d, want 5 (down for supersteps 3 and 4)", got)
	}
	// A flaky event only heals the failure it caused: a later failure at a
	// different superstep must stay permanent.
	if got := in.RecoverStep(1, 6); got != -1 {
		t.Errorf("flaky@3 healed an unrelated failure at superstep 6 (RecoverStep = %d)", got)
	}
	if got := in.RecoverStep(0, 3); got != -1 {
		t.Errorf("recovery matched the wrong rank (RecoverStep = %d)", got)
	}
	// An unattributed failure (failedStep -1, e.g. a panic) is not matched
	// by flaky self-recovery.
	if got := in.RecoverStep(1, -1); got != -1 {
		t.Errorf("flaky healed an unattributed failure (RecoverStep = %d)", got)
	}
}

func TestRecoverEventMatchesLaterFailures(t *testing.T) {
	p, err := Parse("rank1:drop@3;rank1:recover@5")
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInjector(p)
	if err != nil {
		t.Fatal(err)
	}
	// Not before the recover event's superstep, and from it on.
	if got := in.RecoverStep(1, 3); got != 5 {
		t.Errorf("RecoverStep(1, 3) = %d, want the explicit recover@5", got)
	}
	// Explicit recover events do match unattributed failures.
	if got := in.RecoverStep(1, -1); got != 5 {
		t.Errorf("recover@5 did not match an unattributed failure (RecoverStep = %d)", got)
	}
	// But not failures that happen at or after the recover step: the
	// declaration must postdate the failure it heals.
	if in.RecoverStep(1, 5) != -1 || in.RecoverStep(1, 6) != -1 {
		t.Error("recover@5 healed a failure at/after its own superstep")
	}
	var nilIn *Injector
	if got := nilIn.RecoverStep(1, 3); got != -1 {
		t.Errorf("nil injector declared a recovery at %d", got)
	}
}

func TestParseWireFaults(t *testing.T) {
	for spec, want := range map[string]string{
		"rank1:corrupt@3":          "rank1:corrupt@3x1",
		"rank1:corrupt@3x8":        "rank1:corrupt@3x8",
		"rank0:dup@2":              "rank0:dup@2",
		"rank1:reorder@4":          "rank1:reorder@4",
		"partition@3:{0,1}|{2,3}":  "partition@3:{0,1}|{2,3}",
		"partition@3:{1, 0}|{3,2}": "partition@3:{0,1}|{2,3}", // sides sort
		"heal@6":                   "heal@6",
		"partition@3:{0,1}|{2,3};heal@6;rank1:corrupt@2": "partition@3:{0,1}|{2,3};heal@6;rank1:corrupt@2x1",
	} {
		p, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if got := p.String(); got != want {
			t.Errorf("Parse(%q).String() = %q, want %q", spec, got, want)
		}
		again, err := Parse(p.String())
		if err != nil {
			t.Fatalf("Parse(String(%q)) = %q: %v", spec, p.String(), err)
		}
		if len(again.Events) != len(p.Events) {
			t.Fatalf("round trip of %q lost events", spec)
		}
		for i := range p.Events {
			if !reflect.DeepEqual(p.Events[i], again.Events[i]) {
				t.Errorf("round trip of %q: event %d: %+v != %+v", spec, i, p.Events[i], again.Events[i])
			}
		}
	}
}

func TestParseWireFaultGarbage(t *testing.T) {
	for _, spec := range []string{
		"rank1:corrupt@3xq",        // bad corrupt count
		"rank1:dup@-1",             // negative step
		"partition@3",              // no sides
		"partition@3:{0,1}",        // one side
		"partition@3:{0,1}{2,3}",   // missing separator
		"partition@3:{0,1}|{1,2}",  // overlapping sides
		"partition@3:{}|{2,3}",     // empty side
		"partition@3:{0,-1}|{2,3}", // negative rank
		"partition@q:{0}|{1}",      // bad step
		"heal@x",                   // bad step
		"heal@-2",                  // negative step
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted garbage", spec)
		}
	}
}

func TestInjectorWireQueries(t *testing.T) {
	p, err := Parse("rank1:corrupt@3x2;rank0:dup@2;rank1:reorder@4")
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInjector(p)
	if err != nil {
		t.Fatal(err)
	}
	if !in.CorruptWire(1, 3, 0) || !in.CorruptWire(1, 3, 1) || in.CorruptWire(1, 3, 2) {
		t.Error("CorruptWire should corrupt attempts 0,1 and pass attempt 2")
	}
	if in.CorruptWire(0, 3, 0) || in.CorruptWire(1, 2, 0) {
		t.Error("CorruptWire matched wrong rank/step")
	}
	if !in.Duplicate(0, 2) || in.Duplicate(1, 2) || in.Duplicate(0, 3) {
		t.Error("Duplicate matching wrong")
	}
	if !in.Reorder(1, 4) || in.Reorder(0, 4) || in.Reorder(1, 3) {
		t.Error("Reorder matching wrong")
	}
	var nilIn *Injector
	if nilIn.CorruptWire(0, 0, 0) || nilIn.Duplicate(0, 0) || nilIn.Reorder(0, 0) || nilIn.Severed(0, 1, 0) {
		t.Error("nil injector injected a wire fault")
	}
}

func TestSeveredWindow(t *testing.T) {
	p, err := Parse("partition@3:{0,1}|{2,3};heal@6")
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInjector(p)
	if err != nil {
		t.Fatal(err)
	}
	// Before the partition and from the heal on, all links are up.
	if in.Severed(0, 2, 2) || in.Severed(0, 2, 6) || in.Severed(0, 2, 9) {
		t.Error("link severed outside the partition window")
	}
	// Inside [3, 6): cross-cut links are down, both directions.
	for step := int64(3); step < 6; step++ {
		if !in.Severed(0, 2, step) || !in.Severed(2, 0, step) || !in.Severed(1, 3, step) {
			t.Errorf("cross-cut link not severed at step %d", step)
		}
		if in.Severed(0, 1, step) || in.Severed(2, 3, step) {
			t.Errorf("intra-side link severed at step %d", step)
		}
	}
	// A rank named in neither side keeps all its links.
	if in.Severed(0, 4, 4) || in.Severed(4, 2, 4) {
		t.Error("unnamed rank's links severed")
	}
}

func TestSeveredWithoutHealIsPermanent(t *testing.T) {
	p, err := Parse("partition@2:{0}|{1}")
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInjector(p)
	if err != nil {
		t.Fatal(err)
	}
	if in.Severed(0, 1, 1) {
		t.Error("severed before the partition step")
	}
	if !in.Severed(0, 1, 2) || !in.Severed(0, 1, 1000) {
		t.Error("unhealed partition should sever forever")
	}
}

func TestHealActsAsRecoverForAnyRank(t *testing.T) {
	p, err := Parse("partition@3:{0,1}|{2,3};heal@6")
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInjector(p)
	if err != nil {
		t.Fatal(err)
	}
	// Every rank is recovered exactly at the heal step, not before.
	for _, rank := range []int{0, 1, 2, 3} {
		if got := in.RecoverStep(rank, 3); got != 6 {
			t.Errorf("RecoverStep(rank %d) = %d, want 6", rank, got)
		}
	}
	// Heal only matches failures before its step.
	if got := in.RecoverStep(0, 6); got != -1 {
		t.Errorf("heal@6 healed a failure at its own superstep (RecoverStep = %d)", got)
	}
}

func TestRandomGroupPlanDeterministicAndValid(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		a := RandomGroup(seed, 8, 6, 4)
		b := RandomGroup(seed, 8, 6, 4)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d diverged: %v vs %v", seed, a, b)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("seed %d produced an invalid plan %q: %v", seed, a, err)
		}
		// Round-trips through the grammar.
		again, err := Parse(a.String())
		if err != nil {
			t.Fatalf("seed %d plan %q does not re-parse: %v", seed, a, err)
		}
		if len(again.Events) != len(a.Events) {
			t.Fatalf("seed %d plan %q lost events in round trip", seed, a)
		}
		// Every partition has a later heal.
		for _, e := range a.Events {
			if e.Kind == KindPartition {
				healed := false
				for _, h := range a.Events {
					if h.Kind == KindHeal && h.Step > e.Step {
						healed = true
					}
				}
				if !healed {
					t.Fatalf("seed %d: partition without a paired heal in %q", seed, a)
				}
				if got := len(e.SideA) + len(e.SideB); got != 4 {
					t.Fatalf("seed %d: partition sides cover %d ranks, want 4: %q", seed, got, a)
				}
			}
		}
	}
}

func TestParseGrayFaults(t *testing.T) {
	for _, spec := range []string{
		"rank1:slow@3:50ms",
		"rank1:gslow@3x4:20ms",
		"rank2:gslow@0x1:1ms;rank1:slow@2:500us",
	} {
		p, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		again, err := Parse(p.String())
		if err != nil {
			t.Fatalf("Parse(String(%q)) = %q: %v", spec, p.String(), err)
		}
		if !reflect.DeepEqual(p.Events, again.Events) {
			t.Errorf("round trip of %q: %+v != %+v", spec, p.Events, again.Events)
		}
	}
}

func TestParseGrayFaultGarbage(t *testing.T) {
	for _, spec := range []string{
		"rank1:slow@3",          // no duration
		"rank1:slow@3:banana",   // bad duration
		"rank1:slow@3x2:50ms",   // slow takes no window
		"rank1:gslow@3:50ms",    // gslow needs a window
		"rank1:gslow@3x2",       // gslow without duration
		"rank1:gslow@3xq:50ms",  // bad window
		"rank1:gslow@3x2:-50ms", // negative stall
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted garbage", spec)
		}
	}
}

// TestInjectorSlowWindows: slow fires on its exact superstep, gslow over its
// whole window, overlapping events sum, and the nil injector is inert.
func TestInjectorSlowWindows(t *testing.T) {
	p, err := Parse("rank1:slow@3:50ms;rank1:gslow@2x3:20ms;rank0:gslow@5x2:7ms")
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInjector(p)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]map[int64]time.Duration{
		1: {2: 20 * time.Millisecond, 3: 70 * time.Millisecond, 4: 20 * time.Millisecond},
		0: {5: 7 * time.Millisecond, 6: 7 * time.Millisecond},
	}
	for rank := 0; rank < 3; rank++ {
		for step := int64(0); step < 9; step++ {
			if got := in.Slow(rank, step); got != want[rank][step] {
				t.Errorf("Slow(%d, %d) = %s, want %s", rank, step, got, want[rank][step])
			}
		}
	}
	var nilInj *Injector
	if got := nilInj.Slow(1, 3); got != 0 {
		t.Errorf("nil injector Slow = %s, want 0", got)
	}
}

// TestRandomGroupPairsFatalWithRecover: every fatal fault a random group
// plan draws (drop, panic, persistent corrupt) must be paired with a later
// recover for the same rank, so rejoin-enabled chaos sweeps exercise the
// degrade-and-heal path instead of only permanent degradation.
func TestRandomGroupPairsFatalWithRecover(t *testing.T) {
	sawFatal, sawGray := false, false
	for seed := int64(0); seed < 64; seed++ {
		p := RandomGroup(seed, 8, 6, 4)
		for _, e := range p.Events {
			fatal := e.Kind == KindDrop || e.Kind == KindPanic ||
				(e.Kind == KindCorrupt && e.Times >= 10)
			if e.Kind == KindSlow || e.Kind == KindGSlow {
				sawGray = true
			}
			if !fatal {
				continue
			}
			sawFatal = true
			paired := false
			for _, r := range p.Events {
				if r.Kind == KindRecover && r.Rank == e.Rank && r.Step > e.Step {
					paired = true
					break
				}
			}
			if !paired {
				t.Fatalf("seed %d: fatal %s has no later recover in %q", seed, e, p)
			}
		}
	}
	if !sawFatal {
		t.Fatal("no fatal faults drawn across 64 seeds: pairing property untested")
	}
	if !sawGray {
		t.Fatal("no gray faults drawn across 64 seeds: slow/gslow arms unreachable")
	}
}
