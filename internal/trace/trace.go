// Package trace records a task-parallel program's execution — its
// parallel constructs and instrumented memory accesses — as a compact
// binary event stream, and replays such streams through the detection
// engine. Recording runs the real program once (sequentially, eagerly,
// with near-zero overhead); a replay re-detects races under any
// algorithm and worker count without re-running user code. This mirrors
// how FutureRD is an instrumentation stream consumer (§6
// "Implementation"), and gives the library offline analysis and
// shareable regression corpora.
//
// # Format v3
//
// Record writes format v3 ("FUTRD3\n"): the recorder routes accesses
// through the same event-batch layer the engine uses (internal/event),
// so contiguous word accesses coalesce into range events before they are
// encoded, and the encoded stream is framed into length-prefixed,
// CRC32-C-checksummed, DEFLATE-compressed blocks so readers stream one
// block at a time (block header: uvarint compressed length, uvarint raw
// length, 4-byte little-endian CRC32-C of the compressed payload). The
// reader treats every declared length as hostile: lengths are bounded
// before use and buffers grow only as bytes actually arrive, so a forged
// length prefix cannot make it allocate the declared size, and a
// truncated or bit-flipped stream is diagnosed by the checksum instead of
// decoding to plausible garbage. Inside a block, events are
//
//	opcode      operands                      meaning
//	0x01        —                             spawn (child events follow, then task-end)
//	0x02        —                             create_fut (id implicit: creation order)
//	0x03        —                             task end
//	0x04        —                             sync
//	0x05        zigzag Δid                    get_fut (delta from the previously gotten id)
//	0x06/0x07   escape                        1-word read/write (stride enters the cache)
//	0x08/0x09   escape, uvarint words         range read/write (stride enters the cache)
//	0x0A        uvarint len, bytes            strand label for the current task
//	0x10–0x41   —                             1-word access, kind + Δaddr ∈ [-12,12] from base 0 in the opcode
//	0x42–0x7F   low byte                      1-word access, kind + Δaddr ∈ [-3968,3967] from base 0 in 2 bytes
//	0x80–0xFF   —                             access, kind + slot of the stride cache in the opcode
//
// Addresses are delta-encoded against a base. Each kind keeps the ends
// of its last three accesses, most recent first: bases 0, 1 and 2. The
// batcher can interleave three streams (its last op and a lookback of
// two), so a stream's previous access is one of the bases even when two
// other streams sit between its ranges. The small and medium classes
// count from base 0. An escape operand is one varint of up to 66 bits:
// the zigzag Δaddr above 2 bits naming the base; base 3 is malformed.
// Each kind keeps its 64 most recent cache-missed (base, Δaddr, words)
// strides in a round-robin cache that medium and escape events fill, so
// a stride that repeats — the row ranges of a blocked kernel, the
// periodic strides of a wavefront kernel — costs one byte per access. A
// cached reference to a slot its kind never filled is malformed.
//
// Task nesting is implicit in event order (a spawn/create is followed by
// the child's complete subsequence and a task-end), and replay drives
// the engine's BeginSpawn/EndSpawn construct API from an explicit stack,
// so arbitrary spawn depth costs no Go stack. Accesses are decoded a run
// at a time:
// the decoder fills a fixed buffer with consecutive access events, one
// op per event, and replay hands each run to the engine in one call
// (Engine.Accesses), which appends the ops as they are: they are the ops
// of the recorded batches, so replay rebuilds the direct run's batches.
//
// A zero-length block terminates the stream; bytes after it make the
// stream malformed.
//
// v3 is the only format read. A stream with the magic of a retired
// format ("FUTRD1\n", or "FUTRD2\n" with one delta base per kind, whose
// operands would decode to different addresses) is rejected with
// ErrBadTrace and a request to re-record it. The identifiers of the
// event layer keep their v2 prefix.
package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"

	"futurerd/internal/detect"
	"futurerd/internal/event"
	"futurerd/internal/shadow"
)

// magicV2 opens every trace stream (format v3; see the package doc).
var magicV2 = []byte("FUTRD3\n")

// ErrBadTrace reports a malformed or truncated stream.
var ErrBadTrace = errors.New("trace: malformed event stream")

// ErrForeignTask is the error Record returns when a body makes a construct
// or an access through a task other than its own (an enclosing task's
// handle): the stream cannot name the task, so its replay would differ.
var ErrForeignTask = errors.New(
	"trace: construct or access through a task other than the executing body's own")

// tevKind enumerates the structural events the decoder yields; accesses
// arrive as runs of event.Op instead (see v2Decoder.run).
type tevKind uint8

const (
	tevNone tevKind = iota // an access run filled its buffer; more may follow
	tevEOF
	tevSpawn
	tevCreate // id
	tevTaskEnd
	tevSync
	tevGet // id
	tevLabel
)

// tev is one decoded structural event.
type tev struct {
	kind  tevKind
	id    uint64
	label string
}

// newDecoder checks the magic and returns the stream's decoder.
func newDecoder(r io.Reader) (*v2Decoder, error) {
	w := &wire{r: bufio.NewReader(r)}
	head := make([]byte, len(magicV2))
	if _, err := io.ReadFull(w, head); err != nil {
		return nil, fmt.Errorf("%w: bad magic", ErrBadTrace)
	}
	switch string(head) {
	case string(magicV2):
		return &v2Decoder{w: w, ops: make([]event.Op, runCap)}, nil
	case "FUTRD1\n", "FUTRD2\n":
		return nil, fmt.Errorf("%w: format v%c is no longer read; re-record the trace", ErrBadTrace, head[5])
	}
	return nil, fmt.Errorf("%w: bad magic", ErrBadTrace)
}

// Record executes root sequentially (eager futures, no detection) and
// writes its event stream to w in format v3. Every construct and access
// must go through the task handed to the body that makes it; one through
// an enclosing task's handle fails the recording with ErrForeignTask, and
// the stream is left without its terminator, so no reader accepts it.
func Record(w io.Writer, root func(*detect.Task)) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magicV2); err != nil {
		return err
	}
	r := newRecorder(bw)
	root(r.cur)
	if r.foreign != "" {
		r.err = fmt.Errorf("%w (the first: a %s)", ErrForeignTask, r.foreign)
	}
	r.finish()
	if r.err != nil {
		return r.err
	}
	return bw.Flush()
}

// RecordBytes is Record into a fresh buffer.
func RecordBytes(root func(*detect.Task)) ([]byte, error) {
	var buf bytes.Buffer
	if err := Record(&buf, root); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Replay runs the event stream through a detection engine configured by
// cfg and returns its report. Replaying a trace yields exactly the same
// report as detecting the original program, for any algorithm and worker
// count. A malformed stream fails the replay with an error wrapping
// ErrBadTrace; Replay sets no limits.
func Replay(r io.Reader, cfg detect.Config) (*detect.Report, error) {
	dec, err := newDecoder(r)
	if err != nil {
		return nil, err
	}
	var derr error
	eng := detect.NewEngine(cfg)
	rep := eng.Run(func(t *detect.Task) { derr = newReplayer(eng, t).walk(dec, Limits{}) })
	if derr != nil && rep.Err == nil {
		return nil, derr
	}
	return rep, nil
}

// ReplayBytes is Replay over an in-memory stream.
func ReplayBytes(b []byte, cfg detect.Config) (*detect.Report, error) {
	return Replay(bytes.NewReader(b), cfg)
}

// DefaultMaxReplayWords is the cumulative replayed-words bound
// ReplayRecover applies when Limits.MaxWords is zero: ~4G words is far
// beyond any recorded benchmark and small enough that a hostile trace
// cannot spin a replay for hours.
const DefaultMaxReplayWords = 1 << 32

// DefaultMaxReplayPages is the distinct-shadow-page bound ReplayRecover
// applies when Limits.MaxPages is zero: 2^15 pages of 2^shadow.PageBits
// words are 1 GiB of shadow memory, far beyond any recorded benchmark and
// small enough that a hostile trace cannot exhaust memory.
const DefaultMaxReplayPages = 1 << 15

// Limits bounds a recovering replay against hostile or damaged traces.
type Limits struct {
	// MaxEvents cuts the replay after this many decoded events (0 means
	// unlimited).
	MaxEvents uint64
	// MaxWords cuts the replay once the cumulative replayed access words
	// exceed it (0 means DefaultMaxReplayWords).
	MaxWords uint64
	// MaxPages cuts the replay before the access that would touch more
	// than this many distinct shadow pages (2^shadow.PageBits words each;
	// 0 means DefaultMaxReplayPages). Every page is materialized on first
	// touch, so this bounds a replay's shadow memory, which a short stream
	// of far-apart accesses could otherwise drive to gigabytes.
	MaxPages uint64
}

// ReplayRecover replays as much of the stream as decodes cleanly and
// never fails on a damaged trace: where Replay returns a decode error,
// ReplayRecover stops at the last well-formed event, closes the open
// tasks (their implicit function-end syncs run as if the program ended
// there), and returns the report of the replayed prefix with
// Stats.Trace describing the cut — Truncated, the event count, and the
// decoder's one-line diagnosis. The same path enforces lim against
// hostile streams. The returned error is only non-nil when the engine
// itself could not run (it is independent of stream damage); replay
// semantic failures (e.g. a get on an uncompleted future) still surface
// through Report.Err exactly as in Replay.
func ReplayRecover(r io.Reader, cfg detect.Config, lim Limits) (*detect.Report, error) {
	if lim.MaxWords == 0 {
		lim.MaxWords = DefaultMaxReplayWords
	}
	if lim.MaxPages == 0 {
		lim.MaxPages = DefaultMaxReplayPages
	}
	var ts detect.TraceStats
	dec, err := newDecoder(r)
	if err != nil {
		// Not even a magic: the report covers the empty prefix.
		ts = detect.TraceStats{Truncated: true, Reason: err.Error()}
	}
	eng := detect.NewEngine(cfg)
	rep := eng.Run(func(t *detect.Task) {
		if dec == nil {
			return
		}
		r := newReplayer(eng, t)
		if err := r.walk(dec, lim); err != nil {
			// Close the open tasks so the engine sees a well-formed (if
			// shorter) program: detection over the prefix stays valid.
			for len(r.stack) > 0 {
				r.end()
			}
			ts = detect.TraceStats{Truncated: true, TruncatedAtEvent: r.events, Reason: err.Error()}
		}
	})
	rep.Stats.Trace = ts
	return rep, nil
}

// replayer drives the engine through a decoded stream iteratively: task
// nesting lives on an explicit frame stack (via the engine's
// BeginSpawn/EndSpawn and BeginFut/EndFut construct API), so a spawn
// chain of any depth replays in constant Go stack.
type replayer struct {
	e      *detect.Engine
	cur    *detect.Task
	stack  []frame
	futs   map[uint64]*detect.Fut
	events uint64 // events replayed
}

type frame struct {
	t   *detect.Task
	h   *detect.Fut
	fut bool
}

func newReplayer(e *detect.Engine, root *detect.Task) *replayer {
	return &replayer{e: e, cur: root, futs: make(map[uint64]*detect.Fut)}
}

// construct replays one structural event.
func (r *replayer) construct(v tev) error {
	switch v.kind {
	case tevSpawn:
		child := r.e.BeginSpawn(r.cur)
		r.stack = append(r.stack, frame{t: r.cur})
		r.cur = child
	case tevCreate:
		child, h := r.e.BeginFut(r.cur)
		r.futs[v.id] = h
		r.stack = append(r.stack, frame{t: r.cur, h: h, fut: true})
		r.cur = child
	case tevTaskEnd:
		if len(r.stack) == 0 {
			return malformed("task end with no open task")
		}
		r.end()
	case tevSync:
		r.cur.Sync()
	case tevGet:
		// A missing id yields a nil handle; GetFut fails the run with
		// ErrFutureNotReady, matching what detection of the original
		// (non-forward-pointing) program would report.
		r.cur.GetFut(r.futs[v.id])
	case tevLabel:
		r.cur.Label(v.label)
	}
	return nil
}

// end closes the innermost open task.
func (r *replayer) end() {
	f := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	if f.fut {
		r.e.EndFut(f.t, r.cur, f.h, nil)
	} else {
		r.e.EndSpawn(f.t, r.cur)
	}
	r.cur = f.t
}

// walk replays the stream until it ends and returns the error that ended
// it: nil at a clean end, a decode error wrapped in ErrBadTrace, or a hit
// of lim (whose zero fields set no limit). Each decoded access run goes
// straight into the engine's event batch in one call; on a cut, the
// events before it are replayed.
func (r *replayer) walk(dec *v2Decoder, lim Limits) error {
	var use usage
	for {
		ops, v, err := dec.run()
		ops, cut := lim.clip(ops, r.events, &use)
		r.e.Accesses(r.cur, ops)
		r.events += uint64(len(ops))
		switch {
		case cut != nil:
			return cut
		case err != nil:
			return err
		case v.kind == tevNone:
			continue
		case v.kind == tevEOF:
			if len(r.stack) != 0 {
				return malformed("stream ends with %d unterminated tasks", len(r.stack))
			}
			return nil
		case lim.MaxEvents != 0 && r.events >= lim.MaxEvents:
			return lim.eventsHit()
		}
		if err := r.construct(v); err != nil {
			return err
		}
		r.events++
	}
}

// usage is what a replay's ops have used so far of the limits that
// clip enforces: the words accessed and the distinct shadow pages
// touched.
type usage struct {
	words uint64
	pages map[uint64]struct{}
	last  uint64 // the page most recently counted, plus one (0: none yet)
}

// touch counts the pages of op's words not counted before, up to budget
// pages in all, and reports whether they all fit. A range that wraps the
// address space walks new pages until the budget runs out.
func (u *usage) touch(op *event.Op, budget uint64) bool {
	if op.Words <= 0 {
		return true
	}
	last := (op.Addr + uint64(op.Words) - 1) >> shadow.PageBits
	for pn := op.Addr >> shadow.PageBits; ; pn++ {
		if pn+1 != u.last { // a run of accesses on one page looks it up once
			if _, ok := u.pages[pn]; !ok {
				if uint64(len(u.pages)) == budget {
					return false
				}
				if u.pages == nil {
					u.pages = make(map[uint64]struct{})
				}
				u.pages[pn] = struct{}{}
			}
			u.last = pn + 1
		}
		if pn == last {
			return true
		}
	}
}

// clip cuts a decoded access run at its first op past lim, given the
// events replayed before the run and the running usage. It returns the
// ops to replay and, when it cut, the limit hit.
func (lim Limits) clip(ops []event.Op, events uint64, use *usage) ([]event.Op, error) {
	var cut error
	if lim.MaxEvents != 0 && events+uint64(len(ops)) > lim.MaxEvents {
		ops = ops[:lim.MaxEvents-events]
		cut = lim.eventsHit()
	}
	if lim.MaxWords == 0 && lim.MaxPages == 0 {
		return ops, cut
	}
	for i := range ops {
		if use.words += uint64(ops[i].Words); lim.MaxWords != 0 && use.words > lim.MaxWords {
			return ops[:i], fmt.Errorf("replay limit: more than %d words accessed", lim.MaxWords)
		}
		if lim.MaxPages != 0 && !use.touch(&ops[i], lim.MaxPages) {
			return ops[:i], fmt.Errorf("replay limit: more than %d shadow pages touched", lim.MaxPages)
		}
	}
	return ops, cut
}

func (lim Limits) eventsHit() error {
	return fmt.Errorf("replay limit: more than %d events", lim.MaxEvents)
}
