// Trace stream statistics: event counts, on-disk and inflated size, and
// how the access events were encoded.
package trace

import "io"

// StatInfo summarizes one trace stream.
type StatInfo struct {
	Bytes  int64 // stream size on the wire, through its terminator
	Events int64 // all events, structural and access

	Spawns, Creates, Gets, Syncs, TaskEnds, Labels int64

	Accesses int64 // access events (coalesced ranges count once)
	Words    int64 // shadow words covered by the accesses

	// Inflated is the event bytes the blocks hold after decompression:
	// what the decoder walks.
	Inflated int64
	// Access events by encoding class (see the package documentation's
	// opcode table), and the structural events; the five sum to Events.
	Small, Medium, Cached, Escape, Structural int64
}

// BytesPerEvent returns the mean wire bytes per event.
func (s *StatInfo) BytesPerEvent() float64 {
	if s.Events == 0 {
		return 0
	}
	return float64(s.Bytes) / float64(s.Events)
}

// Stat decodes a trace stream and returns its summary. Like Replay, it
// fails with ErrBadTrace on a malformed stream, including one with bytes
// after its terminator.
func Stat(r io.Reader) (*StatInfo, error) {
	dec, err := newDecoder(r)
	if err != nil {
		return nil, err
	}
	st := &StatInfo{}
	for {
		ops, v, err := dec.run()
		if err != nil {
			return nil, err
		}
		st.Events += int64(len(ops))
		st.Accesses += int64(len(ops))
		for i := range ops {
			st.Words += int64(ops[i].Words)
		}
		switch v.kind {
		case tevNone:
			continue
		case tevEOF:
			st.Bytes = dec.w.n
			st.Inflated = dec.inflated
			st.Small, st.Medium, st.Escape = dec.small, dec.medium, dec.escape
			st.Cached = st.Accesses - st.Small - st.Medium - st.Escape
			st.Structural = st.Events - st.Accesses
			return st, nil
		case tevSpawn:
			st.Spawns++
		case tevCreate:
			st.Creates++
		case tevTaskEnd:
			st.TaskEnds++
		case tevSync:
			st.Syncs++
		case tevGet:
			st.Gets++
		case tevLabel:
			st.Labels++
		}
		st.Events++
	}
}
