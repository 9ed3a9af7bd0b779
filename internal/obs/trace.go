package obs

import (
	"encoding/json"
	"io"
	"strconv"
	"sync"

	"cloudmc/internal/dram"
)

// TraceWriter records every DRAM command as one JSONL line:
//
//	{"run":"DS","cycle":123,"cmd":"ACT","channel":0,"rank":1,"bank":3,"row":7041,"tenant":0}
//
// It satisfies memctrl.CommandTrace structurally (obs does not import
// memctrl). Lines are appended to an internal buffer and flushed to
// the underlying writer in whole-line blocks, so multiple
// TraceWriters (one per study cell in an mcmix sweep) can share one
// *os.File: each flush is a single Write of complete lines.
//
// tenant -1 marks commands without an attributable requester
// (page-policy precharges); the "tenant" field is omitted then.
//
// One simulation emits its lines in (cycle, channel) order. The
// writer locks internally so that its buffer and counters stay
// consistent when another goroutine reads them: mcmix's parallel cells
// each own a writer on one shared file, and the driver flushes and
// checks them all after the sweep.
type TraceWriter struct {
	mu     sync.Mutex
	w      io.Writer
	prefix []byte // `{"run":"<label>","cycle":` pre-encoded
	buf    []byte
	events uint64
	err    error
}

// traceFlushAt is the buffered-bytes threshold that triggers a write
// to the underlying writer.
const traceFlushAt = 32 << 10

// NewTraceWriter returns a trace writer labelling every line with
// run. The caller owns w; call Flush before closing it.
func NewTraceWriter(w io.Writer, run string) *TraceWriter {
	label, _ := json.Marshal(run) // pre-escape once; Marshal of a string cannot fail
	prefix := append([]byte(`{"run":`), label...)
	prefix = append(prefix, `,"cycle":`...)
	return &TraceWriter{w: w, prefix: prefix, buf: make([]byte, 0, traceFlushAt+512)}
}

// Command appends one trace line. It is the memctrl.CommandTrace
// implementation; cmd.Kind.String() supplies the ACT/PRE/RD/WR
// mnemonic.
func (t *TraceWriter) Command(now uint64, cmd dram.Command, tenant int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events++
	b := append(t.buf, t.prefix...)
	b = strconv.AppendUint(b, now, 10)
	b = append(b, `,"cmd":"`...)
	b = append(b, cmd.Kind.String()...)
	b = append(b, `","channel":`...)
	b = strconv.AppendInt(b, int64(cmd.Loc.Channel), 10)
	b = append(b, `,"rank":`...)
	b = strconv.AppendInt(b, int64(cmd.Loc.Rank), 10)
	b = append(b, `,"bank":`...)
	b = strconv.AppendInt(b, int64(cmd.Loc.Bank), 10)
	b = append(b, `,"row":`...)
	b = strconv.AppendInt(b, int64(cmd.Loc.Row), 10)
	if tenant >= 0 {
		b = append(b, `,"tenant":`...)
		b = strconv.AppendInt(b, int64(tenant), 10)
	}
	b = append(b, '}', '\n')
	t.buf = b
	if len(t.buf) >= traceFlushAt {
		t.flushLocked()
	}
}

// Events returns the number of commands traced so far.
func (t *TraceWriter) Events() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.events
}

// Flush writes any buffered lines to the underlying writer.
func (t *TraceWriter) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.flushLocked()
	return t.err
}

// Err returns the first write error encountered, if any.
func (t *TraceWriter) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

func (t *TraceWriter) flushLocked() {
	if len(t.buf) == 0 {
		return
	}
	if _, err := t.w.Write(t.buf); err != nil && t.err == nil {
		t.err = err
	}
	t.buf = t.buf[:0]
}
