// Package fault provides deterministic, seedable fault injection for the
// heterogeneous runtime's chaos tests. A Plan is a list of concrete fault
// events — drop, delay, or fail a rank's exchange at superstep k, panic a
// worker in a given phase, break the checkpoint store, or stall a rank
// transiently (flaky/recover, driving the degrade→heal lifecycle) — and an
// Injector answers the runtime's "does a fault fire here?" queries against
// that plan. Because the plan is explicit
// data (optionally generated from a seed by Random), every chaos run is
// reproducible: the same plan yields the same faults at the same points.
//
// Superstep indices are 0-based and count exchange rounds as seen by each
// endpoint. For the float32 engines one exchange round corresponds to one
// BSP superstep; the generic engine performs two rounds per superstep (the
// second carries the active count), so plan steps there index rounds, not
// supersteps.
package fault

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Phase identifies the engine phase a panic fault fires in.
type Phase uint8

const (
	// PhaseGenerate panics inside the user's generate_messages.
	PhaseGenerate Phase = iota + 1
	// PhaseProcess panics inside message processing.
	PhaseProcess
	// PhaseUpdate panics inside vertex updating.
	PhaseUpdate
)

func (p Phase) String() string {
	switch p {
	case PhaseGenerate:
		return "generate"
	case PhaseProcess:
		return "process"
	case PhaseUpdate:
		return "update"
	default:
		return fmt.Sprintf("Phase(%d)", uint8(p))
	}
}

// ParsePhase parses a phase name as used in plan specs.
func ParsePhase(s string) (Phase, error) {
	switch s {
	case "generate":
		return PhaseGenerate, nil
	case "process":
		return PhaseProcess, nil
	case "update":
		return PhaseUpdate, nil
	default:
		return 0, fmt.Errorf("fault: unknown phase %q (want generate|process|update)", s)
	}
}

// IOOp identifies the checkpoint-store operation a disk fault fires on.
type IOOp uint8

const (
	// OpWrite is the checkpoint data (or manifest) write.
	OpWrite IOOp = iota + 1
	// OpSync is the fsync after a write.
	OpSync
	// OpRename is the temp-file → final-name commit rename.
	OpRename
)

func (o IOOp) String() string {
	switch o {
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpRename:
		return "rename"
	default:
		return fmt.Sprintf("IOOp(%d)", uint8(o))
	}
}

// ParseIOOp parses a disk-operation name as used in plan specs.
func ParseIOOp(s string) (IOOp, error) {
	switch s {
	case "write":
		return OpWrite, nil
	case "sync":
		return OpSync, nil
	case "rename":
		return OpRename, nil
	default:
		return 0, fmt.Errorf("fault: unknown I/O op %q (want write|sync|rename)", s)
	}
}

// Kind identifies what a fault event does.
type Kind uint8

const (
	// KindDrop kills the rank at the given exchange: it stops communicating
	// permanently, modeling a dead coprocessor.
	KindDrop Kind = iota + 1
	// KindDelay stalls the rank's exchange by Delay before it proceeds,
	// modeling a transient hiccup that stays under the deadline (or not).
	KindDelay
	// KindFail makes the rank's exchange attempt fail Times consecutive
	// times, modeling transient link errors; the runtime retries with
	// backoff, so Times below the retry cap is recoverable.
	KindFail
	// KindPanic panics a worker goroutine in the given Phase, modeling a
	// crash inside a user function.
	KindPanic
	// KindIOFail makes the checkpoint store's Op fail while committing the
	// checkpoint of superstep Step, modeling a storage-path error. The
	// failed commit aborts the run like a crash; the on-disk store keeps
	// the previous generations and a restart can resume from them.
	KindIOFail
	// KindTorn makes the checkpoint data write of superstep Step silently
	// drop the second half of its payload — a lying disk or torn page.
	// The commit reports success; recovery must detect the corruption by
	// checksum and fall back to the previous generation.
	KindTorn
	// KindFlaky kills the rank at exchange Step like KindDrop, but declares
	// it recovered — ready to rejoin a healing run — Times supersteps later
	// (Times 0 means 1). It models a transient device stall: fatal without
	// rejoin support, a bounded outage with it.
	KindFlaky
	// KindRecover declares the rank recovered at superstep Step. It injects
	// no failure itself; it pairs with an earlier drop/flaky/panic on the
	// same rank to name the superstep a healing run may re-admit it at.
	KindRecover
	// KindCorrupt flips bytes in every packet the rank transmits at
	// exchange Step, for Times consecutive transmission attempts (0 means
	// 1). The receiver's checksum detects the damage, drops the packet and
	// pulls a retransmission; a Times under the retry cap is recoverable,
	// a larger Times convicts the sender as a dead link.
	KindCorrupt
	// KindDup delivers every packet the rank transmits at exchange Step
	// twice, modeling a duplicating link; the receiver's sequence fence
	// drops the extra copy.
	KindDup
	// KindReorder swaps adjacent packets on the rank's outgoing links at
	// exchange Step: the previous round's packet arrives ahead of the
	// current one, modeling an out-of-order link; the receiver's sequence
	// fence drops the stale packet and recovers the real one.
	KindReorder
	// KindPartition severs every link crossing the cut SideA|SideB from
	// superstep Step until the first later KindHeal event, modeling a
	// network split. The supervisor fences the minority side and continues
	// on the quorum side. Partition events are group-level: Rank is -1.
	KindPartition
	// KindHeal ends the most recent partition (and declares any felled
	// rank recovered) at superstep Step. Group-level: Rank is -1.
	KindHeal
	// KindSlow stalls the rank's superstep Step by Delay before its local
	// compute, modeling a transient gray failure (a thermal-throttle spike,
	// a contended bus) that slows the rank without killing it. Unlike
	// KindDelay — which stalls only the exchange call — the stall is charged
	// to the rank's superstep time, so lockstep makes the whole group wait:
	// the signal the straggler detector feeds on.
	KindSlow
	// KindGSlow is the sustained form of KindSlow: the rank stalls by Delay
	// on every superstep in [Step, Step+Times), modeling persistent gray
	// degradation (a sick device). Times 0 means 1.
	KindGSlow
)

func (k Kind) String() string {
	switch k {
	case KindDrop:
		return "drop"
	case KindDelay:
		return "delay"
	case KindFail:
		return "fail"
	case KindPanic:
		return "panic"
	case KindIOFail:
		return "iofail"
	case KindTorn:
		return "torn"
	case KindFlaky:
		return "flaky"
	case KindRecover:
		return "recover"
	case KindCorrupt:
		return "corrupt"
	case KindDup:
		return "dup"
	case KindReorder:
		return "reorder"
	case KindPartition:
		return "partition"
	case KindHeal:
		return "heal"
	case KindSlow:
		return "slow"
	case KindGSlow:
		return "gslow"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Event is one planned fault.
type Event struct {
	// Rank is the rank the fault hits (any non-negative rank of the device
	// group; a plan targeting a rank outside the run's group simply never
	// fires).
	Rank int
	// Step is the 0-based superstep (exchange round) the fault fires at.
	Step int64
	// Kind is what happens.
	Kind Kind
	// Phase is the engine phase for KindPanic events.
	Phase Phase
	// Delay is the injected stall for KindDelay events.
	Delay time.Duration
	// Times is the number of consecutive failing attempts for KindFail
	// events, or the number of supersteps a KindFlaky rank stays down
	// before it is recoverable (0 means 1 for both).
	Times int
	// Op is the failing storage operation for KindIOFail events. Disk
	// faults index the superstep of the checkpoint being committed, and
	// conventionally name rank 0 — the host owns the storage path.
	Op IOOp
	// SideA and SideB are the two rank sets a KindPartition event cuts
	// apart (sorted ascending, disjoint). Every link with one endpoint in
	// each side is severed; links within a side, or touching a rank named
	// in neither side, stay up. Group-level events (partition, heal) set
	// Rank to -1.
	SideA, SideB []int
}

// String renders the event in the spec grammar accepted by Parse.
func (e Event) String() string {
	switch e.Kind {
	case KindDrop:
		return fmt.Sprintf("rank%d:drop@%d", e.Rank, e.Step)
	case KindDelay:
		return fmt.Sprintf("rank%d:delay@%d:%s", e.Rank, e.Step, e.Delay)
	case KindFail:
		t := e.Times
		if t == 0 {
			t = 1
		}
		return fmt.Sprintf("rank%d:fail@%dx%d", e.Rank, e.Step, t)
	case KindPanic:
		return fmt.Sprintf("rank%d:panic@%d:%s", e.Rank, e.Step, e.Phase)
	case KindIOFail:
		return fmt.Sprintf("rank%d:iofail@%d:%s", e.Rank, e.Step, e.Op)
	case KindFlaky:
		t := e.Times
		if t == 0 {
			t = 1
		}
		return fmt.Sprintf("rank%d:flaky@%dx%d", e.Rank, e.Step, t)
	case KindCorrupt:
		t := e.Times
		if t == 0 {
			t = 1
		}
		return fmt.Sprintf("rank%d:corrupt@%dx%d", e.Rank, e.Step, t)
	case KindPartition:
		return fmt.Sprintf("partition@%d:%s|%s", e.Step, sideString(e.SideA), sideString(e.SideB))
	case KindHeal:
		return fmt.Sprintf("heal@%d", e.Step)
	case KindSlow:
		return fmt.Sprintf("rank%d:slow@%d:%s", e.Rank, e.Step, e.Delay)
	case KindGSlow:
		t := e.Times
		if t == 0 {
			t = 1
		}
		return fmt.Sprintf("rank%d:gslow@%dx%d:%s", e.Rank, e.Step, t, e.Delay)
	default:
		return fmt.Sprintf("rank%d:%s@%d", e.Rank, e.Kind, e.Step)
	}
}

func sideString(side []int) string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, r := range side {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(r))
	}
	sb.WriteByte('}')
	return sb.String()
}

// Validate checks the event's fields.
func (e Event) Validate() error {
	if e.Rank < 0 && e.Kind != KindPartition && e.Kind != KindHeal {
		return fmt.Errorf("fault: event rank %d < 0", e.Rank)
	}
	if e.Step < 0 {
		return fmt.Errorf("fault: event step %d < 0", e.Step)
	}
	switch e.Kind {
	case KindDrop:
	case KindDelay:
		if e.Delay < 0 {
			return fmt.Errorf("fault: negative delay %s", e.Delay)
		}
	case KindFail:
		if e.Times < 0 {
			return fmt.Errorf("fault: negative fail count %d", e.Times)
		}
	case KindPanic:
		if e.Phase < PhaseGenerate || e.Phase > PhaseUpdate {
			return fmt.Errorf("fault: panic event needs a phase")
		}
	case KindIOFail:
		if e.Op < OpWrite || e.Op > OpRename {
			return fmt.Errorf("fault: iofail event needs an I/O op")
		}
	case KindTorn:
	case KindFlaky:
		if e.Times < 0 {
			return fmt.Errorf("fault: negative flaky down-window %d", e.Times)
		}
	case KindRecover:
	case KindCorrupt:
		if e.Times < 0 {
			return fmt.Errorf("fault: negative corrupt count %d", e.Times)
		}
	case KindDup:
	case KindReorder:
	case KindPartition:
		if len(e.SideA) == 0 || len(e.SideB) == 0 {
			return fmt.Errorf("fault: partition event needs two non-empty sides")
		}
		seen := make(map[int]bool, len(e.SideA)+len(e.SideB))
		for _, r := range append(append([]int(nil), e.SideA...), e.SideB...) {
			if r < 0 {
				return fmt.Errorf("fault: partition side rank %d < 0", r)
			}
			if seen[r] {
				return fmt.Errorf("fault: rank %d appears twice in partition sides", r)
			}
			seen[r] = true
		}
	case KindHeal:
	case KindSlow:
		if e.Delay < 0 {
			return fmt.Errorf("fault: negative slow stall %s", e.Delay)
		}
	case KindGSlow:
		if e.Delay < 0 {
			return fmt.Errorf("fault: negative gslow stall %s", e.Delay)
		}
		if e.Times < 0 {
			return fmt.Errorf("fault: negative gslow window %d", e.Times)
		}
	default:
		return fmt.Errorf("fault: unknown kind %d", uint8(e.Kind))
	}
	return nil
}

// Plan is an ordered set of fault events — the full chaos scenario of one
// run.
type Plan struct {
	Events []Event
}

// Validate checks every event.
func (p Plan) Validate() error {
	for i, e := range p.Events {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("fault: event %d: %w", i, err)
		}
	}
	return nil
}

// String renders the plan in the spec grammar accepted by Parse.
func (p Plan) String() string {
	parts := make([]string, len(p.Events))
	for i, e := range p.Events {
		parts[i] = e.String()
	}
	return strings.Join(parts, ";")
}

// Parse reads a plan spec: events separated by ';' (or ','), each of the
// form
//
//	rank<r>:drop@<step>
//	rank<r>:delay@<step>:<duration>
//	rank<r>:fail@<step>[x<times>]
//	rank<r>:panic@<step>:<generate|process|update>
//	rank<r>:iofail@<step>:<write|sync|rename>
//	rank<r>:torn@<step>
//	rank<r>:flaky@<step>[x<down>]
//	rank<r>:recover@<step>
//	rank<r>:corrupt@<step>[x<times>]
//	rank<r>:dup@<step>
//	rank<r>:reorder@<step>
//	rank<r>:slow@<step>:<duration>
//	rank<r>:gslow@<step>x<supersteps>:<duration>
//	partition@<step>:{<r>,...}|{<r>,...}
//	heal@<step>
//
// e.g. "rank1:drop@3;rank0:panic@2:generate;rank0:iofail@3:write". Disk
// faults (iofail, torn) fire in the durable checkpoint store while it
// commits the checkpoint of superstep <step>. Healing faults: flaky@<step>x<down>
// kills the rank at <step> and declares it recovered <down> supersteps later;
// recover@<step> declares a rank felled by an earlier event recovered at
// <step> (both are acted on only by runs with rejoin enabled). Wire faults:
// corrupt flips payload bytes on the rank's outgoing packets (x<times>
// consecutive transmission attempts), dup delivers each of its packets
// twice, reorder swaps adjacent packets on its links.
// "partition@3:{0,1}|{2,3}" severs every link between the two rank sets
// from superstep 3 until the first later "heal@<n>", which also readmits
// the fenced side under rejoin-enabled runs. Sides should jointly cover
// the run's ranks for a clean quorum/minority fence. Gray faults: slow
// stalls the rank's compute at one superstep by <duration> — charged to
// its superstep time, so the whole lockstep group waits (delay, by
// contrast, stalls only the exchange call of a rank that already finished
// computing); gslow sustains the same per-superstep stall for
// <supersteps> consecutive supersteps, the straggler detector's target.
func Parse(spec string) (Plan, error) {
	var p Plan
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return p, nil
	}
	for _, tok := range splitEvents(spec) {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		e, err := parseEvent(tok)
		if err != nil {
			return Plan{}, err
		}
		p.Events = append(p.Events, e)
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// splitEvents splits a spec on ';' or ',' separators, except inside the
// '{...}' rank sets of partition events, where commas separate ranks.
func splitEvents(spec string) []string {
	var toks []string
	depth, start := 0, 0
	for i, r := range spec {
		switch r {
		case '{':
			depth++
		case '}':
			if depth > 0 {
				depth--
			}
		case ';', ',':
			if depth == 0 {
				toks = append(toks, spec[start:i])
				start = i + 1
			}
		}
	}
	return append(toks, spec[start:])
}

func parseEvent(tok string) (Event, error) {
	var e Event
	if rest, ok := strings.CutPrefix(tok, "partition@"); ok {
		return parsePartition(tok, rest)
	}
	if rest, ok := strings.CutPrefix(tok, "heal@"); ok {
		step, err := strconv.ParseInt(rest, 10, 64)
		if err != nil {
			return e, fmt.Errorf("fault: event %q: bad step: %w", tok, err)
		}
		return Event{Rank: -1, Step: step, Kind: KindHeal}, nil
	}
	rest, ok := strings.CutPrefix(tok, "rank")
	if !ok {
		return e, fmt.Errorf("fault: event %q does not start with rank<r> (or partition@/heal@)", tok)
	}
	head, tail, ok := strings.Cut(rest, ":")
	if !ok {
		return e, fmt.Errorf("fault: event %q missing ':'", tok)
	}
	rank, err := strconv.Atoi(head)
	if err != nil {
		return e, fmt.Errorf("fault: event %q: bad rank: %w", tok, err)
	}
	e.Rank = rank
	kind, at, ok := strings.Cut(tail, "@")
	if !ok {
		return e, fmt.Errorf("fault: event %q missing '@<step>'", tok)
	}
	// The step may carry a suffix: ":<duration>", ":<phase>", ":<op>", or
	// "x<times>".
	stepStr, extra := at, ""
	if i := strings.IndexAny(at, ":x"); i >= 0 && kind != "delay" && kind != "panic" && kind != "iofail" && kind != "slow" {
		// fail@<step>x<times> (gslow@<step>x<n>:<dur> rides the same split;
		// its case cuts the duration back out of extra)
		if at[i] == 'x' {
			stepStr, extra = at[:i], at[i+1:]
		}
	}
	if kind == "delay" || kind == "panic" || kind == "iofail" || kind == "slow" {
		if s, x, ok := strings.Cut(at, ":"); ok {
			stepStr, extra = s, x
		}
	}
	step, err := strconv.ParseInt(stepStr, 10, 64)
	if err != nil {
		return e, fmt.Errorf("fault: event %q: bad step: %w", tok, err)
	}
	e.Step = step
	switch kind {
	case "drop":
		e.Kind = KindDrop
	case "delay":
		e.Kind = KindDelay
		if extra == "" {
			return e, fmt.Errorf("fault: event %q: delay needs ':<duration>'", tok)
		}
		d, err := time.ParseDuration(extra)
		if err != nil {
			return e, fmt.Errorf("fault: event %q: bad duration: %w", tok, err)
		}
		e.Delay = d
	case "fail":
		e.Kind = KindFail
		e.Times = 1
		if extra != "" {
			t, err := strconv.Atoi(extra)
			if err != nil {
				return e, fmt.Errorf("fault: event %q: bad fail count: %w", tok, err)
			}
			e.Times = t
		}
	case "flaky":
		e.Kind = KindFlaky
		e.Times = 1
		if extra != "" {
			t, err := strconv.Atoi(extra)
			if err != nil {
				return e, fmt.Errorf("fault: event %q: bad flaky down-window: %w", tok, err)
			}
			e.Times = t
		}
	case "recover":
		e.Kind = KindRecover
	case "panic":
		e.Kind = KindPanic
		if extra == "" {
			return e, fmt.Errorf("fault: event %q: panic needs ':<phase>'", tok)
		}
		ph, err := ParsePhase(extra)
		if err != nil {
			return e, err
		}
		e.Phase = ph
	case "iofail":
		e.Kind = KindIOFail
		if extra == "" {
			return e, fmt.Errorf("fault: event %q: iofail needs ':<write|sync|rename>'", tok)
		}
		op, err := ParseIOOp(extra)
		if err != nil {
			return e, err
		}
		e.Op = op
	case "torn":
		e.Kind = KindTorn
	case "corrupt":
		e.Kind = KindCorrupt
		e.Times = 1
		if extra != "" {
			t, err := strconv.Atoi(extra)
			if err != nil {
				return e, fmt.Errorf("fault: event %q: bad corrupt count: %w", tok, err)
			}
			e.Times = t
		}
	case "dup":
		e.Kind = KindDup
	case "reorder":
		e.Kind = KindReorder
	case "slow":
		e.Kind = KindSlow
		if extra == "" {
			return e, fmt.Errorf("fault: event %q: slow needs ':<duration>'", tok)
		}
		d, err := time.ParseDuration(extra)
		if err != nil {
			return e, fmt.Errorf("fault: event %q: bad duration: %w", tok, err)
		}
		e.Delay = d
	case "gslow":
		e.Kind = KindGSlow
		cnt, dur, ok := strings.Cut(extra, ":")
		if !ok || cnt == "" || dur == "" {
			return e, fmt.Errorf("fault: event %q: gslow needs 'x<supersteps>:<duration>'", tok)
		}
		t, err := strconv.Atoi(cnt)
		if err != nil {
			return e, fmt.Errorf("fault: event %q: bad gslow window: %w", tok, err)
		}
		e.Times = t
		d, err := time.ParseDuration(dur)
		if err != nil {
			return e, fmt.Errorf("fault: event %q: bad duration: %w", tok, err)
		}
		e.Delay = d
	default:
		return e, fmt.Errorf("fault: event %q: unknown kind %q", tok, kind)
	}
	return e, nil
}

func parsePartition(tok, rest string) (Event, error) {
	e := Event{Rank: -1, Kind: KindPartition}
	stepStr, sides, ok := strings.Cut(rest, ":")
	if !ok {
		return e, fmt.Errorf("fault: event %q: partition needs ':{a,..}|{b,..}'", tok)
	}
	step, err := strconv.ParseInt(stepStr, 10, 64)
	if err != nil {
		return e, fmt.Errorf("fault: event %q: bad step: %w", tok, err)
	}
	e.Step = step
	a, b, ok := strings.Cut(sides, "|")
	if !ok {
		return e, fmt.Errorf("fault: event %q: partition needs two '|'-separated sides", tok)
	}
	if e.SideA, err = parseSide(tok, a); err != nil {
		return e, err
	}
	if e.SideB, err = parseSide(tok, b); err != nil {
		return e, err
	}
	return e, nil
}

func parseSide(tok, s string) ([]int, error) {
	inner, ok := strings.CutPrefix(s, "{")
	if !ok {
		return nil, fmt.Errorf("fault: event %q: partition side %q missing '{'", tok, s)
	}
	inner, ok = strings.CutSuffix(inner, "}")
	if !ok {
		return nil, fmt.Errorf("fault: event %q: partition side %q missing '}'", tok, s)
	}
	var side []int
	for _, f := range strings.Split(inner, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		r, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("fault: event %q: bad partition side rank %q: %w", tok, f, err)
		}
		side = append(side, r)
	}
	sort.Ints(side)
	return side, nil
}

// Random derives a plan of n events from a seed, deterministically: the same
// (seed, maxStep, n) always yields the same plan. Steps are drawn uniformly
// from [0, maxStep), kinds and ranks uniformly; delays stay small (≤ 2ms)
// and fail bursts short (≤ 3 attempts) so random plans remain recoverable
// under default retry settings. Events are sorted by step for readability.
func Random(seed, maxStep int64, n int) Plan {
	rng := rand.New(rand.NewSource(seed))
	var p Plan
	if maxStep < 1 {
		maxStep = 1
	}
	for i := 0; i < n; i++ {
		e := Event{
			Rank: rng.Intn(2),
			Step: rng.Int63n(maxStep),
		}
		switch rng.Intn(4) {
		case 0:
			e.Kind = KindDrop
		case 1:
			e.Kind = KindDelay
			e.Delay = time.Duration(rng.Intn(2000)) * time.Microsecond
		case 2:
			e.Kind = KindFail
			e.Times = 1 + rng.Intn(3)
		default:
			e.Kind = KindPanic
			e.Phase = Phase(1 + rng.Intn(3))
		}
		p.Events = append(p.Events, e)
	}
	sort.SliceStable(p.Events, func(i, j int) bool { return p.Events[i].Step < p.Events[j].Step })
	return p
}

// RandomGroup derives a plan of n events for a device group of the given
// size, deterministically from the seed. It mixes every event kind —
// fail-stop (drop, flaky, panic), link noise (delay, fail, corrupt, dup,
// reorder), gray failures (slow, gslow), storage (iofail, torn), and
// split-brain (partition with a paired heal covering all ranks) — under
// constraints that keep outcomes classifiable for chaos oracles: fatal rank
// faults (drop, flaky, panic, and persistent corrupt/fail bursts) all
// target one designated victim rank so a quorum of survivors always exists,
// every fatal fault is paired with a recover@N one to three supersteps
// later so rejoin-enabled sweeps exercise the heal path, and partition
// steps avoid the victim's fatal steps so the supervisor sees a clean cut.
// Transient noise stays under the default retry budget, and injected stalls
// stay well under the default exchange deadline.
func RandomGroup(seed, maxStep int64, n, ranks int) Plan {
	rng := rand.New(rand.NewSource(seed))
	if maxStep < 3 {
		maxStep = 3
	}
	if ranks < 2 {
		ranks = 2
	}
	victim := 1 + rng.Intn(ranks-1)
	fatalSteps := make(map[int64]bool)
	partitions := 0
	var p Plan
	for i := 0; i < n; i++ {
		e := Event{
			Rank: rng.Intn(ranks),
			Step: rng.Int63n(maxStep),
		}
		fatal := false
		switch rng.Intn(14) {
		case 0:
			e.Kind = KindDrop
			e.Rank = victim
			fatal = true
		case 1:
			e.Kind = KindDelay
			e.Delay = time.Duration(rng.Intn(2000)) * time.Microsecond
		case 2:
			e.Kind = KindFail
			e.Times = 1 + rng.Intn(3)
		case 3:
			e.Kind = KindPanic
			e.Rank = victim
			e.Phase = Phase(1 + rng.Intn(3))
			fatal = true
		case 4:
			e.Kind = KindIOFail
			e.Rank = 0 // the host owns the storage path
			e.Op = IOOp(1 + rng.Intn(3))
		case 5:
			e.Kind = KindTorn
			e.Rank = 0
		case 6:
			e.Kind = KindFlaky
			e.Rank = victim
			e.Times = 1 + rng.Intn(2)
			fatalSteps[e.Step] = true
		case 7:
			e.Kind = KindRecover
			e.Rank = victim
		case 8:
			e.Kind = KindCorrupt
			if rng.Intn(3) == 0 {
				// Persistent: exhausts the retry budget, convicting the
				// sender — fatal, so it must hit the victim.
				e.Rank = victim
				e.Times = 10
				fatal = true
			} else {
				e.Times = 1 + rng.Intn(3)
			}
		case 9:
			e.Kind = KindDup
		case 10:
			e.Kind = KindReorder
		case 11:
			e.Kind = KindSlow
			e.Delay = time.Duration(500+rng.Intn(1500)) * time.Microsecond
		case 12:
			e.Kind = KindGSlow
			e.Times = 1 + rng.Intn(3)
			e.Delay = time.Duration(200+rng.Intn(800)) * time.Microsecond
		default:
			// Defer partitions to a second pass so they can avoid every
			// fatal step (a simultaneous cut and device death is not
			// attributable to a single cause), and keep at most one per
			// plan so the supervisor sees exactly one two-component cut.
			partitions++
			continue
		}
		p.Events = append(p.Events, e)
		if fatal {
			// Pair every fatal fault with an explicit recovery shortly
			// after, so rejoin-enabled sweeps exercise the degrade→heal
			// path instead of only the permanent-degrade one. (Flaky
			// events carry their own recovery window and need no pair.)
			fatalSteps[e.Step] = true
			p.Events = append(p.Events, Event{
				Rank: victim, Step: e.Step + 1 + rng.Int63n(3), Kind: KindRecover,
			})
		}
	}
	if partitions > 0 {
		e := Event{Rank: -1, Kind: KindPartition}
		step := rng.Int63n(maxStep)
		for try := 0; fatalSteps[step] && try < 16; try++ {
			step = rng.Int63n(maxStep)
		}
		if !fatalSteps[step] {
			e.Step = step
			cut := 1 + rng.Intn(ranks-1)
			perm := rng.Perm(ranks)
			e.SideA = append([]int(nil), perm[:cut]...)
			e.SideB = append([]int(nil), perm[cut:]...)
			sort.Ints(e.SideA)
			sort.Ints(e.SideB)
			heal := Event{Rank: -1, Step: e.Step + 1 + rng.Int63n(3), Kind: KindHeal}
			p.Events = append(p.Events, e, heal)
		}
	}
	sort.SliceStable(p.Events, func(i, j int) bool { return p.Events[i].Step < p.Events[j].Step })
	return p
}

// Injector answers the runtime's fault queries against a plan. All query
// methods are safe for concurrent use; PanicNow consumes its event so that
// exactly one worker panics per planned panic.
type Injector struct {
	events []Event
	fired  []atomic.Bool // parallel to events; used by one-shot kinds
}

// NewInjector validates the plan and builds an injector for it.
func NewInjector(p Plan) (*Injector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	evs := append([]Event(nil), p.Events...)
	return &Injector{events: evs, fired: make([]atomic.Bool, len(evs))}, nil
}

// Drop reports whether rank's exchange at step is dropped (the rank dies).
// Both permanent drops and flaky stalls kill the rank here; the difference
// is whether RecoverStep later declares it rejoinable.
func (in *Injector) Drop(rank int, step int64) bool {
	if in == nil {
		return false
	}
	for _, e := range in.events {
		if (e.Kind == KindDrop || e.Kind == KindFlaky) && e.Rank == rank && e.Step == step {
			return true
		}
	}
	return false
}

// RecoverStep returns the earliest superstep at which rank — felled by a
// fault detected at superstep failedStep — becomes recoverable and may
// rejoin, or -1 if the plan never recovers it. A flaky event recovers its
// own failure (same step) Times supersteps after it fired; a recover event
// pairs with any earlier failure on the same rank and names the rejoin
// superstep explicitly; a heal event acts as a recover event for every rank
// (it readmits a fenced partition side). failedStep may be -1 for failures
// that could not be attributed to a superstep (panics); only explicit
// recover/heal events match those. The supervisor uses it to bound degraded
// segments.
func (in *Injector) RecoverStep(rank int, failedStep int64) int64 {
	if in == nil {
		return -1
	}
	best := int64(-1)
	consider := func(s int64) {
		if best < 0 || s < best {
			best = s
		}
	}
	for _, e := range in.events {
		if e.Rank != rank && e.Kind != KindHeal {
			continue
		}
		switch e.Kind {
		case KindFlaky:
			down := int64(e.Times)
			if down < 1 {
				down = 1
			}
			if e.Step == failedStep {
				consider(e.Step + down)
			}
		case KindRecover, KindHeal:
			if e.Step > failedStep {
				consider(e.Step)
			}
		}
	}
	return best
}

// Delay returns the injected stall for rank's exchange at step (0 if none).
func (in *Injector) Delay(rank int, step int64) time.Duration {
	if in == nil {
		return 0
	}
	var d time.Duration
	for _, e := range in.events {
		if e.Kind == KindDelay && e.Rank == rank && e.Step == step {
			d += e.Delay
		}
	}
	return d
}

// Slow returns the injected compute stall for rank's superstep step (0 if
// none): the sum of matching slow events plus every gslow window covering
// step. The supervisor applies the stall before the rank's local compute and
// charges it to the rank's superstep time, so unlike Delay it slows the
// whole lockstep group — the gray-failure signal the straggler detector
// consumes.
func (in *Injector) Slow(rank int, step int64) time.Duration {
	if in == nil {
		return 0
	}
	var d time.Duration
	for _, e := range in.events {
		if e.Rank != rank {
			continue
		}
		switch e.Kind {
		case KindSlow:
			if e.Step == step {
				d += e.Delay
			}
		case KindGSlow:
			times := int64(e.Times)
			if times < 1 {
				times = 1
			}
			if step >= e.Step && step < e.Step+times {
				d += e.Delay
			}
		}
	}
	return d
}

// LinkFails reports whether the attempt'th try (0-based) of rank's exchange
// at step fails. Deterministic: attempts below the event's Times fail, later
// attempts succeed — so a Times under the runtime's retry cap models a
// transient fault, and a larger Times a persistent link failure.
func (in *Injector) LinkFails(rank int, step int64, attempt int) bool {
	if in == nil {
		return false
	}
	for _, e := range in.events {
		if e.Kind == KindFail && e.Rank == rank && e.Step == step {
			t := e.Times
			if t == 0 {
				t = 1
			}
			if attempt < t {
				return true
			}
		}
	}
	return false
}

// CorruptWire reports whether the attempt'th transmission (0-based; attempt
// 0 is the original send, later attempts are retransmissions) of rank's
// outgoing packets at step is corrupted in flight. Deterministic like
// LinkFails: attempts below the event's Times are corrupted, later attempts
// arrive clean — so a Times under the retry cap models a transient burst of
// bad bytes and a larger Times a persistently corrupting link.
func (in *Injector) CorruptWire(rank int, step int64, attempt int) bool {
	if in == nil {
		return false
	}
	for _, e := range in.events {
		if e.Kind == KindCorrupt && e.Rank == rank && e.Step == step {
			t := e.Times
			if t == 0 {
				t = 1
			}
			if attempt < t {
				return true
			}
		}
	}
	return false
}

// Duplicate reports whether rank's outgoing packets at step are delivered
// twice.
func (in *Injector) Duplicate(rank int, step int64) bool {
	if in == nil {
		return false
	}
	for _, e := range in.events {
		if e.Kind == KindDup && e.Rank == rank && e.Step == step {
			return true
		}
	}
	return false
}

// Reorder reports whether rank's outgoing links swap adjacent packets at
// step: the previous round's packet is transmitted ahead of the current
// one.
func (in *Injector) Reorder(rank int, step int64) bool {
	if in == nil {
		return false
	}
	for _, e := range in.events {
		if e.Kind == KindReorder && e.Rank == rank && e.Step == step {
			return true
		}
	}
	return false
}

// Severed reports whether the link between from and to is cut at step by an
// active partition: a KindPartition event with Step <= step whose window has
// not yet been closed by a heal event, with from and to on opposite sides of
// the cut. Symmetric in from/to.
func (in *Injector) Severed(from, to int, step int64) bool {
	if in == nil {
		return false
	}
	for _, e := range in.events {
		if e.Kind != KindPartition || e.Step > step {
			continue
		}
		if step >= in.healBound(e.Step) {
			continue
		}
		if crossesCut(e, from, to) {
			return true
		}
	}
	return false
}

// healBound returns the step of the earliest KindHeal event strictly after
// partStep, or MaxInt64 if the plan never heals that partition.
func (in *Injector) healBound(partStep int64) int64 {
	bound := int64(1<<63 - 1)
	for _, e := range in.events {
		if e.Kind == KindHeal && e.Step > partStep && e.Step < bound {
			bound = e.Step
		}
	}
	return bound
}

func crossesCut(e Event, from, to int) bool {
	in := func(side []int, r int) bool {
		for _, s := range side {
			if s == r {
				return true
			}
		}
		return false
	}
	return (in(e.SideA, from) && in(e.SideB, to)) || (in(e.SideB, from) && in(e.SideA, to))
}

// IOFails reports whether rank's checkpoint-store operation op fails while
// committing the checkpoint of superstep step. Deterministic and
// non-consuming: every matching attempt fails, modeling a persistent
// storage-path error at that commit.
func (in *Injector) IOFails(rank int, step int64, op IOOp) bool {
	if in == nil {
		return false
	}
	for _, e := range in.events {
		if e.Kind == KindIOFail && e.Rank == rank && e.Step == step && e.Op == op {
			return true
		}
	}
	return false
}

// TornWrite reports whether rank's checkpoint data write at step is torn
// (silently truncated). Each planned tear fires exactly once, so the
// corrupted generation is a single on-disk artifact.
func (in *Injector) TornWrite(rank int, step int64) bool {
	if in == nil {
		return false
	}
	for i, e := range in.events {
		if e.Kind == KindTorn && e.Rank == rank && e.Step == step {
			if in.fired[i].CompareAndSwap(false, true) {
				return true
			}
		}
	}
	return false
}

// PanicNow reports whether a worker on rank at step in phase should panic.
// Each planned panic fires exactly once, in whichever worker goroutine asks
// first.
func (in *Injector) PanicNow(rank int, step int64, phase Phase) bool {
	if in == nil {
		return false
	}
	for i, e := range in.events {
		if e.Kind == KindPanic && e.Rank == rank && e.Step == step && e.Phase == phase {
			if in.fired[i].CompareAndSwap(false, true) {
				return true
			}
		}
	}
	return false
}

// Events returns a copy of the plan's events.
func (in *Injector) Events() []Event {
	if in == nil {
		return nil
	}
	return append([]Event(nil), in.events...)
}
