// Trace stream statistics: event counts and on-disk size.
package trace

import (
	"bufio"
	"io"
)

// StatInfo summarizes one trace stream.
type StatInfo struct {
	Bytes  int64 // stream size on the wire
	Events int64 // all events, structural and access

	Spawns, Creates, Gets, Syncs, TaskEnds, Labels int64

	Accesses int64 // access events (coalesced ranges count once)
	Words    int64 // shadow words covered by the accesses
}

// BytesPerEvent returns the mean wire bytes per event.
func (s *StatInfo) BytesPerEvent() float64 {
	if s.Events == 0 {
		return 0
	}
	return float64(s.Bytes) / float64(s.Events)
}

// countingReader tracks the bytes consumed from the wrapped reader.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// Stat decodes a trace stream and returns its summary.
func Stat(r io.Reader) (*StatInfo, error) {
	cr := &countingReader{r: r}
	dec, err := newDecoder(bufio.NewReader(cr))
	if err != nil {
		return nil, err
	}
	st := &StatInfo{}
	for {
		v, err := dec.next()
		if err != nil {
			return nil, err
		}
		if v.kind == tevEOF {
			break
		}
		st.Events++
		switch v.kind {
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
		case tevRead, tevWrite:
			st.Accesses++
			st.Words += int64(v.words)
		case tevLabel:
			st.Labels++
		}
	}
	st.Bytes = cr.n
	return st, nil
}
