// Format v3: encoder (the recording Executor) and decoder. See the
// package documentation for the wire layout.
package trace

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"futurerd/internal/detect"
	"futurerd/internal/event"
)

// castagnoli is the CRC32-C table for per-block checksums (hardware
// accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Structural and escape opcodes (0x00–0x0F).
const (
	v2Invalid byte = iota // 0 guards zero-filled corruption
	v2Spawn
	v2Create
	v2TaskEnd
	v2Sync
	v2Get    // zigzag id delta from the previously gotten id
	v2Read   // escape operand (delta and base); single word; enters the cache
	v2Write  // must stay v2Read+1 (kind is carried arithmetically)
	v2ReadN  // escape operand, uvarint word count; enters the cache
	v2WriteN // must stay v2ReadN+1
	v2Label  // uvarint byte length, label bytes
)

// Compact access classes.
//
//   - small (1 byte): 0x10–0x41 carry the kind and a delta in [-12, 12]
//     from base 0 in the opcode byte itself — sequential and
//     near-sequential single-word scans.
//   - medium (2 bytes): 0x42–0x7F carry the kind and the high delta bits;
//     one operand byte carries the low 8 bits, covering [-3968, 3967]
//     from base 0 — the random-permutation single-word accesses of
//     pointer-chasing workloads, whose deltas rarely repeat but stay
//     within the (small) live address range.
//   - cached (1 byte): 0x80–0xFF reference one of the 64 most recent
//     (base, delta, words) strides per kind — the recurring strides and
//     row ranges of wavefront and blocked kernels.
const (
	smallBase = 0x10
	smallSpan = 25 // per-kind values: delta in [-smallBias, smallSpan-smallBias)
	smallBias = 12
	medBase   = 0x42
	medHi     = 31 // per-kind high-bit values; operand byte carries the low 8
	medSpan   = medHi * 256
	medBias   = medSpan / 2
	cacheBase = 0x80
	// cacheSlots is the per-kind stride-cache size; must be a power of two
	// and fit the low bits of a cache-class opcode.
	cacheSlots = 64
	// bases is the number of delta bases per kind: the ends of the kind's
	// last accesses, one per stream the batcher can interleave (the last op
	// and its lookback of 2). An escape names its base in the low 2 bits of
	// its operand, so bases must not exceed 3; base 3 is malformed.
	bases = 3
)

// blockTarget is the uncompressed size at which the writer closes a
// block; maxBlock bounds what the reader will buffer (corruption guard).
const (
	blockTarget = 32 << 10
	maxBlock    = 1 << 26
)

// maxLabel bounds recorded label bytes; maxWords bounds a decoded range
// (corruption guard — real ranges are far smaller).
const (
	maxLabel = 1 << 12
	maxWords = 1 << 40
)

func zigzag(d int64) uint64   { return uint64(d<<1) ^ uint64(d>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendEscape appends an escape operand: the zigzag delta zz above the
// 2-bit base, as a base-128 varint of up to 66 bits (two more than
// encoding/binary's), so every 64-bit delta from every base is encodable.
func appendEscape(buf []byte, zz uint64, base int) []byte {
	v, hi := zz<<2|uint64(base), zz>>62
	for hi != 0 || v >= 0x80 {
		buf = append(buf, byte(v)|0x80)
		v, hi = v>>7|hi<<57, hi>>7
	}
	return append(buf, byte(v))
}

// stride is one stride-cache entry: an access at delta from the end of
// base that covers words words. A slot never filled holds words 0.
type stride struct {
	delta int64
	words int
	base  int
}

// addrCoder is the per-kind address-compression state shared by encoder
// and decoder. Each access is encoded against a base: the end of one of
// the kind's last three accesses, most recent first, so the streams that
// the batcher interleaves (a row of B, a row of C) each keep their own
// delta chain. The cacheSlots most recent cache-missed
// strides sit in a round-robin cache, so periodic patterns (wavefront
// kernels cycling through a handful of strides, blocked kernels
// stepping rows) cost one byte per access. Small-class accesses never
// enter the cache; medium-class and escape accesses do.
type addrCoder struct {
	ends  [bases]uint64
	cache [cacheSlots]stride
	next  int
}

// push makes end, the end of the access just coded, base 0; the others
// age by one and the oldest drops (bases is 3).
func (c *addrCoder) push(end uint64) {
	c.ends[2], c.ends[1], c.ends[0] = c.ends[1], c.ends[0], end
}

func (c *addrCoder) insert(s stride) {
	c.cache[c.next] = s
	c.next = (c.next + 1) & (cacheSlots - 1)
}

// indexBits sizes the encoder's stride index: 4 buckets per cache slot.
const indexBits = 8

// addrEncoder adds the encoder's stride index: a hash of each stride
// names the slot that last received it. A lookup verifies the slot, so
// a bucket overwritten by a colliding stride costs a cache miss, never
// a wrong reference, and the index needs no deletes.
type addrEncoder struct {
	addrCoder
	index [1 << indexBits]uint8
}

func (s stride) hash() uint8 {
	h := uint64(s.delta)*0x9E3779B97F4A7C15 ^ uint64(s.words)*0xC2B2AE3D27D4EB4F ^ uint64(s.base)
	return uint8((h * 0x165667B19E3779F9) >> (64 - indexBits))
}

// lookup returns the slot holding s, if any.
func (e *addrEncoder) lookup(s stride) (int, bool) {
	slot := int(e.index[s.hash()])
	return slot, e.cache[slot] == s
}

func (e *addrEncoder) insert(s stride) {
	e.index[s.hash()] = uint8(e.next)
	e.addrCoder.insert(s)
}

// recorder implements detect.Executor: it executes the program eagerly
// on the calling goroutine (like the detection engine, minus detection)
// and logs every event in format v3. Accesses pass through an
// event.Batch first, with the engine's coalescing rule, flushed at the
// engine's seal points (every construct) and at MaxOps, so the stream
// holds exactly the ops of the engine's batches and replay appends them
// as they are. The wire carries no task identity: every event belongs to
// the executing task, so an event through any other task fails the
// recording (see ErrForeignTask).
type recorder struct {
	w    *bufio.Writer
	raw  []byte       // open block, uncompressed
	comp bytes.Buffer // flate scratch
	fw   *flate.Writer

	enc     [2]addrEncoder
	batch   *event.Batch
	futIDs  map[*detect.Fut]uint64
	nextID  uint64
	lastGot uint64
	cur     *detect.Task // the task whose body is executing
	foreign string       // the first event through another task, if any
	err     error
}

func newRecorder(w *bufio.Writer) *recorder {
	r := &recorder{w: w, batch: event.New(), futIDs: make(map[*detect.Fut]uint64)}
	r.cur = detect.NewTask(r)
	// BestSpeed: the event encoding has already removed the numeric
	// redundancy; flate mops up the residual byte-level repetition
	// (structural opcode runs, recurring cache references).
	r.fw, _ = flate.NewWriter(&r.comp, flate.BestSpeed)
	return r
}

// own checks that event op comes through the executing task, keeping the
// first one that does not for Record's error.
func (r *recorder) own(t *detect.Task, op string) {
	if t != r.cur && r.foreign == "" {
		r.foreign = op
	}
}

func (r *recorder) putByte(b byte) { r.raw = append(r.raw, b) }

func (r *recorder) putUvarint(v uint64) { r.raw = binary.AppendUvarint(r.raw, v) }

// endEvent closes the block when it has reached the target size; events
// never span blocks.
func (r *recorder) endEvent() {
	if len(r.raw) >= blockTarget {
		r.flushBlock()
	}
}

func (r *recorder) flushBlock() {
	if len(r.raw) == 0 || r.err != nil {
		return
	}
	r.comp.Reset()
	r.fw.Reset(&r.comp)
	if _, err := r.fw.Write(r.raw); err != nil {
		r.err = err
		return
	}
	if err := r.fw.Close(); err != nil {
		r.err = err
		return
	}
	var hdr [2*binary.MaxVarintLen64 + 4]byte
	n := binary.PutUvarint(hdr[:], uint64(r.comp.Len()))
	n += binary.PutUvarint(hdr[n:], uint64(len(r.raw)))
	// Per-block CRC32-C of the compressed payload: a bit flip anywhere in
	// the block is diagnosed as corruption instead of surfacing as a flate
	// error (or worse, decoding to plausible garbage events).
	binary.LittleEndian.PutUint32(hdr[n:], crc32.Checksum(r.comp.Bytes(), castagnoli))
	n += 4
	if _, err := r.w.Write(hdr[:n]); err != nil {
		r.err = err
		return
	}
	if _, err := r.w.Write(r.comp.Bytes()); err != nil {
		r.err = err
		return
	}
	r.raw = r.raw[:0]
}

// finish flushes everything and writes the zero-length terminator block.
func (r *recorder) finish() {
	r.flushAccesses()
	r.flushBlock()
	if r.err == nil {
		r.err = r.w.WriteByte(0)
	}
	event.Recycle(r.batch)
	r.batch = nil
}

// flushAccesses encodes the buffered (coalesced) accesses. It runs at
// every construct, so access events and construct events stay in program
// order.
func (r *recorder) flushAccesses() {
	for i := range r.batch.Ops {
		op := &r.batch.Ops[i]
		r.encodeAccess(op.Kind, op.Addr, op.Words)
	}
	r.batch.Reset()
}

// encodeAccess encodes one op. A single word near the end of base 0
// takes the small class; otherwise the first base whose (base, delta,
// words) stride is cached takes the cached class; otherwise a single
// word takes the medium class when base 0 is near enough, and anything
// else escapes against the base of the shortest delta.
func (r *recorder) encodeAccess(k event.Kind, addr uint64, words int) {
	kb := int(k)
	e := &r.enc[kb]
	end := addr + uint64(words)
	d0 := int64(addr - e.ends[0])
	if words == 1 && d0 >= -smallBias && d0 < smallSpan-smallBias {
		r.putByte(byte(smallBase + kb*smallSpan + int(d0) + smallBias))
		e.push(end)
		r.endEvent()
		return
	}
	best := stride{delta: d0, words: words}
	for b := 0; b < bases; b++ {
		s := stride{delta: int64(addr - e.ends[b]), words: words, base: b}
		if slot, ok := e.lookup(s); ok {
			r.putByte(byte(cacheBase | kb<<6 | slot))
			e.push(end)
			r.endEvent()
			return
		}
		if zigzag(s.delta) < zigzag(best.delta) {
			best = s
		}
	}
	if words == 1 && d0 >= -medBias && d0 < medSpan-medBias {
		v := int(d0) + medBias
		r.putByte(byte(medBase + kb*medHi + v>>8))
		r.putByte(byte(v))
		best = stride{delta: d0, words: 1} // a recurring medium stride upgrades to 1 byte
	} else if words == 1 {
		r.putByte(v2Read + byte(kb))
		r.raw = appendEscape(r.raw, zigzag(best.delta), best.base)
	} else {
		r.putByte(v2ReadN + byte(kb))
		r.raw = appendEscape(r.raw, zigzag(best.delta), best.base)
		r.putUvarint(uint64(words))
	}
	e.insert(best)
	e.push(end)
	r.endEvent()
}

// Spawn implements detect.Executor.
func (r *recorder) Spawn(t *detect.Task, f func(*detect.Task)) {
	r.own(t, "spawn")
	r.flushAccesses()
	r.putByte(v2Spawn)
	r.endEvent()
	r.cur = detect.NewTask(r)
	f(r.cur)
	r.cur = t
	r.flushAccesses()
	r.putByte(v2TaskEnd)
	r.endEvent()
}

// Sync implements detect.Executor.
func (r *recorder) Sync(t *detect.Task) {
	r.own(t, "sync")
	r.flushAccesses()
	r.putByte(v2Sync)
	r.endEvent()
}

// CreateFut implements detect.Executor. Ids are implicit: creation order
// on both sides of the wire.
func (r *recorder) CreateFut(t *detect.Task, body func(*detect.Task) any) *detect.Fut {
	r.own(t, "create_fut")
	r.flushAccesses()
	id := r.nextID
	r.nextID++
	r.putByte(v2Create)
	r.endEvent()
	h := &detect.Fut{}
	r.cur = detect.NewTask(r)
	h.Complete(body(r.cur))
	r.cur = t
	r.flushAccesses()
	r.putByte(v2TaskEnd)
	r.endEvent()
	r.futIDs[h] = id
	return h
}

// GetFut implements detect.Executor. The operand is the zigzag delta
// from the previously gotten id — traversal-ordered consumers get
// near-previous futures, so the delta is a short varint.
func (r *recorder) GetFut(t *detect.Task, h *detect.Fut) any {
	r.own(t, "get_fut")
	r.flushAccesses()
	// An unknown handle (zero Fut the recorder never created) targets the
	// not-yet-created id nextID, so replay fails like detection would.
	id := r.nextID
	if known, ok := r.futIDs[h]; ok {
		id = known
	}
	r.putByte(v2Get)
	r.putUvarint(zigzag(int64(id) - int64(r.lastGot)))
	r.lastGot = id
	r.endEvent()
	v, _ := h.Value()
	return v
}

// Read implements detect.Executor.
func (r *recorder) Read(t *detect.Task, addr uint64, words int) {
	r.own(t, "read")
	if r.batch.Append(event.Read, addr, words) >= event.MaxOps {
		r.flushAccesses()
	}
}

// Write implements detect.Executor.
func (r *recorder) Write(t *detect.Task, addr uint64, words int) {
	r.own(t, "write")
	if r.batch.Append(event.Write, addr, words) >= event.MaxOps {
		r.flushAccesses()
	}
}

// Label records the strand label of the current task body (Task.Label
// finds this method through its optional-capability check), so replayed
// reports carry the same strand names as a direct run. It leaves the
// buffered accesses buffered, as the engine's Label leaves its batch
// open, so recorded batches stay the engine's batches. The label event
// then precedes some of its strand's earlier accesses on the wire, which
// changes nothing on replay: a label names the task's function, whenever
// it is set.
func (r *recorder) Label(t *detect.Task, label string) {
	r.own(t, "label")
	if len(label) > maxLabel {
		label = label[:maxLabel]
	}
	r.putByte(v2Label)
	r.putUvarint(uint64(len(label)))
	r.raw = append(r.raw, label...)
	r.endEvent()
}

// runCap is the capacity of the decoder's access-run buffer. It is fixed
// and allocated once per decoder: a buffer grown towards event.MaxOps
// costs allocation for no speed.
const runCap = 256

// v2Decoder streams a v2 trace one block at a time.
type v2Decoder struct {
	w    *wire
	fr   io.ReadCloser // flate reader, reused across blocks
	raw  []byte
	pos  int
	comp []byte
	ops  []event.Op // access-run buffer of runCap ops, reused by every run

	dec     [2]addrCoder
	creates uint64
	lastGot uint64

	// Stat's tallies: inflated block bytes and access events by class
	// (cached accesses are the rest, so the hottest path counts nothing).
	inflated              int64
	small, medium, escape int64
}

// wire is the decoder's view of the stream. It counts the bytes the
// decoder consumes, so Stat reports the stream's size through its
// terminator whatever the bufio read-ahead pulled in.
type wire struct {
	r *bufio.Reader
	n int64
}

func (w *wire) Read(p []byte) (int, error) {
	n, err := w.r.Read(p)
	w.n += int64(n)
	return n, err
}

func (w *wire) ReadByte() (byte, error) {
	b, err := w.r.ReadByte()
	if err == nil {
		w.n++
	}
	return b, err
}

func malformed(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadTrace, fmt.Sprintf(format, args...))
}

// readChunk is the growth granule of the hostile-input read loops below:
// a declared length is only trusted one chunk at a time, as bytes
// actually arrive, so a forged multi-megabyte length prefix on a
// ten-byte stream allocates one chunk, not the declared size.
const readChunk = 64 << 10

// readCapped appends exactly want bytes from r to buf[:0], growing chunk
// by chunk. Allocation is proportional to bytes received, never to the
// (attacker-controlled) declared length.
func readCapped(r io.Reader, buf []byte, want uint64) ([]byte, error) {
	buf = buf[:0]
	for got := uint64(0); got < want; {
		c := want - got
		if c > readChunk {
			c = readChunk
		}
		start := len(buf)
		if free := uint64(cap(buf) - start); free < c {
			buf = append(buf[:cap(buf)], make([]byte, c-free)...)
		}
		buf = buf[:start+int(c)]
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			return buf[:start], err
		}
		got += c
	}
	return buf, nil
}

// loadBlock reads, checks and decompresses the next block; it reports
// false at the terminator, which must end the stream. Every declared
// length is bounded before use and read incrementally, and the
// compressed payload must match its recorded CRC32-C, so a truncated,
// bit-flipped or forged stream is diagnosed here — it can neither
// allocate unbounded memory nor leak garbage events into replay.
func (d *v2Decoder) loadBlock() (bool, error) {
	compLen, err := binary.ReadUvarint(d.w)
	if err != nil {
		return false, malformed("truncated block header: %v", err)
	}
	if compLen == 0 {
		if _, err := d.w.r.Peek(1); err == nil {
			return false, malformed("trailing bytes after terminator")
		} else if err != io.EOF {
			return false, malformed("reading past terminator: %v", err)
		}
		return false, nil
	}
	rawLen, err := binary.ReadUvarint(d.w)
	if err != nil {
		return false, malformed("truncated block header: %v", err)
	}
	if compLen > maxBlock || rawLen == 0 || rawLen > maxBlock {
		return false, malformed("implausible block size (%d compressed, %d raw)", compLen, rawLen)
	}
	var sumb [4]byte
	if _, err := io.ReadFull(d.w, sumb[:]); err != nil {
		return false, malformed("truncated block header: %v", err)
	}
	want := binary.LittleEndian.Uint32(sumb[:])
	if d.comp, err = readCapped(d.w, d.comp, compLen); err != nil {
		return false, malformed("truncated block: %v", err)
	}
	if got := crc32.Checksum(d.comp, castagnoli); got != want {
		return false, malformed("block checksum mismatch (%#08x, want %#08x)", got, want)
	}
	if d.fr == nil {
		d.fr = flate.NewReader(bytes.NewReader(d.comp))
	} else if err := d.fr.(flate.Resetter).Reset(bytes.NewReader(d.comp), nil); err != nil {
		return false, malformed("flate reset: %v", err)
	}
	if d.raw, err = readCapped(d.fr, d.raw, rawLen); err != nil {
		return false, malformed("block decompression: %v", err)
	}
	d.pos = 0
	d.inflated += int64(rawLen)
	return true, nil
}

// uvarint decodes an in-block varint operand.
func (d *v2Decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.raw[d.pos:])
	if n <= 0 {
		return 0, malformed("truncated varint operand")
	}
	d.pos += n
	return v, nil
}

// run decodes the access events that follow into the run buffer, one op
// per wire event, across block boundaries. Each op is one op of a
// recorded batch, ready for Engine.Accesses to append as it is. It stops
// at the first structural event, which it returns decoded as end, or
// when the buffer is full (end is tevNone); end is tevEOF at the
// terminator, after which run must not be called again. On a decode
// error ops holds the well-formed accesses before the bad event. ops
// aliases the buffer, so it is valid until the next call.
func (d *v2Decoder) run() (ops []event.Op, end tev, err error) {
	buf := d.ops
	n := 0
	for n < len(buf) {
		if d.pos >= len(d.raw) {
			ok, err := d.loadBlock()
			if err != nil {
				return buf[:n], tev{}, err
			}
			if !ok {
				return buf[:n], tev{kind: tevEOF}, nil
			}
		}
		raw, pos := d.raw, d.pos
		for ; n < len(buf) && pos < len(raw); n++ {
			b := raw[pos]
			pos++
			var kb int
			var addr uint64
			words := 1
			switch {
			case b >= cacheBase:
				kb = int(b>>6) & 1
				c := &d.dec[kb]
				s := &c.cache[b&(cacheSlots-1)]
				if s.words == 0 {
					return buf[:n], tev{}, malformed("reference to empty stride-cache slot %d", b&(cacheSlots-1))
				}
				addr, words = c.ends[s.base]+uint64(s.delta), s.words
			case b >= medBase:
				v := int(b) - medBase
				kb = v / medHi
				if pos >= len(raw) {
					return buf[:n], tev{}, malformed("truncated medium-delta operand")
				}
				delta := int64(v%medHi<<8|int(raw[pos])) - medBias
				pos++
				c := &d.dec[kb]
				addr = c.ends[0] + uint64(delta)
				c.insert(stride{delta: delta, words: 1})
				d.medium++
			case b >= smallBase:
				v := int(b) - smallBase
				kb = v / smallSpan
				addr = d.dec[kb].ends[0] + uint64(v%smallSpan-smallBias)
				d.small++
			case b >= v2Read && b <= v2WriteN:
				d.pos = pos
				op, err := d.escapeAccess(b)
				if err != nil {
					return buf[:n], tev{}, err
				}
				buf[n] = op
				pos = d.pos
				continue
			default:
				d.pos = pos
				end, err := d.structural(b)
				return buf[:n], end, err
			}
			d.dec[kb].push(addr + uint64(words))
			buf[n] = event.Op{Addr: addr, Words: words, Kind: event.Kind(kb)}
		}
		d.pos = pos
	}
	return buf, tev{}, nil
}

// escapeAccess decodes the operands of a v2Read, v2Write, v2ReadN or
// v2WriteN event whose opcode b has been consumed.
func (d *v2Decoder) escapeAccess(b byte) (event.Op, error) {
	kb, words := int(b-v2Read), uint64(1)
	if b >= v2ReadN {
		kb = int(b - v2ReadN)
	}
	zz, base, err := d.escapeOperand()
	if err != nil {
		return event.Op{}, err
	}
	if base >= bases {
		return event.Op{}, malformed("escape names delta base %d", base)
	}
	if b >= v2ReadN {
		if words, err = d.uvarint(); err != nil {
			return event.Op{}, err
		}
		if words == 0 || words > maxWords {
			return event.Op{}, malformed("implausible range of %d words", words)
		}
	}
	c := &d.dec[kb]
	s := stride{delta: unzigzag(zz), words: int(words), base: base}
	addr := c.ends[base] + uint64(s.delta)
	c.insert(s)
	c.push(addr + words)
	d.escape++
	return event.Op{Addr: addr, Words: s.words, Kind: event.Kind(kb)}, nil
}

// escapeOperand decodes the varint that appendEscape wrote into its
// zigzag delta and base.
func (d *v2Decoder) escapeOperand() (zz uint64, base int, err error) {
	var lo, hi uint64 // the operand's low 64 bits and its top 2
	for i := 0; i < 10 && d.pos < len(d.raw); i++ {
		b := d.raw[d.pos]
		d.pos++
		s := uint(7 * i)
		lo |= uint64(b&0x7f) << s
		if s > 57 {
			hi |= uint64(b&0x7f) >> (64 - s)
		}
		if b < 0x80 {
			if i == 9 && b > 7 {
				break
			}
			return lo>>2 | hi<<62, int(lo & 3), nil
		}
	}
	return 0, 0, malformed("truncated or overlong escape operand")
}

// structural decodes the structural event whose opcode b has been
// consumed.
func (d *v2Decoder) structural(b byte) (tev, error) {
	switch b {
	case v2Spawn:
		return tev{kind: tevSpawn}, nil
	case v2Create:
		id := d.creates
		d.creates++
		return tev{kind: tevCreate, id: id}, nil
	case v2TaskEnd:
		return tev{kind: tevTaskEnd}, nil
	case v2Sync:
		return tev{kind: tevSync}, nil
	case v2Get:
		u, err := d.uvarint()
		if err != nil {
			return tev{}, err
		}
		id := uint64(int64(d.lastGot) + unzigzag(u))
		d.lastGot = id
		if id >= d.creates {
			id = ^uint64(0) // not (yet) created: replay fails like detection would
		}
		return tev{kind: tevGet, id: id}, nil
	case v2Label:
		n, err := d.uvarint()
		if err != nil {
			return tev{}, err
		}
		if n > maxLabel || d.pos+int(n) > len(d.raw) {
			return tev{}, malformed("label of %d bytes overruns its block", n)
		}
		s := string(d.raw[d.pos : d.pos+int(n)])
		d.pos += int(n)
		return tev{kind: tevLabel, label: s}, nil
	}
	return tev{}, malformed("unknown opcode %#02x", b)
}
