// Package journal is the daemon's durability log: an append-only,
// fsync'd record stream the run manager writes through, replayed on
// restart to reconstruct the run table and resume interrupted work.
//
// Layout: a fixed header line identifying the file and format version,
// then length-prefixed frames
//
//	[4 bytes big-endian payload length]
//	[4 bytes big-endian CRC-32 (IEEE) of the payload]
//	[payload: one JSON-encoded Record]
//
// The frame CRC makes the common crash artifact — a torn final write —
// cleanly detectable: Decode returns every intact record and flags the
// tail as torn instead of failing the whole log. JSON payloads let the
// record schema grow compatibly (new optional fields) without a format
// bump; the header version only changes when the framing itself does.
//
// Durability contract: Append returns only after the frame is written
// AND fsynced, so a record the caller observed as appended survives
// kill -9. Checkpoint payloads do not live in the journal — records
// carry checkpoint.Refs pointing at atomically-written files beside it
// (see checkpoint.WriteRef), keeping the log small and the replay scan
// cheap.
package journal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"

	"mbrim/internal/checkpoint"
	"mbrim/internal/obs"
)

// header identifies a journal file. Bump the version only for framing
// changes; record-schema evolution rides on JSON's optional fields.
const header = "mbrim-journal v1\n"

// maxRecord bounds one framed payload, fencing a corrupt length prefix
// from turning into a multi-gigabyte allocation during replay.
const maxRecord = 16 << 20

// Type discriminates journal records.
type Type string

// The record taxonomy. A run's journal life is
// submit → checkpoint* → (restart → checkpoint*)* → terminal;
// replay folds the records per run ID and acts on the last state.
const (
	// TypeSubmit records an accepted run: its ID, the client's submit
	// spec (replay rebuilds the request from it), priority and deadline.
	TypeSubmit Type = "submit"
	// TypeStart is the dispatch record older daemons wrote. Nothing
	// writes it any more and replay skips it.
	TypeStart Type = "start"
	// TypeCheckpoint records a durable checkpoint ref for the run; the
	// last valid one is the resume point after a crash.
	TypeCheckpoint Type = "checkpoint"
	// TypeRestart records a supervised in-place restart (panic
	// isolation) or a replay-driven resume after a daemon restart.
	TypeRestart Type = "restart"
	// TypeTerminal records the final state, error and outcome summary.
	TypeTerminal Type = "terminal"
)

// ScopeCluster marks the records an older daemon's second run manager
// wrote for its cr-N cluster runs. Nothing writes it any more — there is
// one run table and its records carry no scope — and replay skips it.
const ScopeCluster = "cluster"

// Record is one journal entry. Only the fields relevant to its Type
// are set; unknown fields from future writers decode into nothing and
// are ignored, unknown Types are preserved for the caller to skip.
type Record struct {
	Type   Type   `json:"type"`
	ID     string `json:"id"`
	Scope  string `json:"scope,omitempty"` // see ScopeCluster
	WallNS int64  `json:"wallNS,omitempty"`

	// Submit payload.
	Spec           json.RawMessage `json:"spec,omitempty"`
	Priority       int             `json:"priority,omitempty"`
	DeadlineWallNS int64           `json:"deadlineWallNS,omitempty"`

	// Checkpoint payload.
	Checkpoint *checkpoint.Ref `json:"checkpoint,omitempty"`

	// Restart payload.
	Reason string `json:"reason,omitempty"`

	// Terminal payload.
	State   string          `json:"state,omitempty"`
	Error   string          `json:"error,omitempty"`
	Summary json.RawMessage `json:"summary,omitempty"`
}

// Writer appends records durably. Safe for concurrent use; appends are
// serialized so frames never interleave.
type Writer struct {
	reg *obs.Registry

	mu     sync.Mutex
	f      *os.File
	closed bool
}

// Open opens (creating if needed) the journal at path for appending
// and writes the header on a fresh file. reg (may be nil) receives the
// journal_* instruments.
func Open(path string, reg *obs.Registry) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: open: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: stat: %w", err)
	}
	if st.Size() == 0 {
		if _, err := f.WriteString(header); err != nil {
			f.Close()
			return nil, fmt.Errorf("journal: header: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("journal: header sync: %w", err)
		}
	}
	if reg != nil {
		reg.SetHelp("journal.appends_total", "Records durably appended to the run journal.")
		reg.SetHelp("journal.append_errors_total", "Journal append failures (record not durable).")
		reg.SetHelp("journal.bytes_total", "Bytes appended to the run journal, framing included.")
		reg.SetHelp("journal.fsync_ns", "Wall time of journal write+fsync, per append.")
	}
	return &Writer{f: f, reg: reg}, nil
}

// Append frames, writes and fsyncs one record, stamping WallNS if the
// caller left it zero. On return the record is durable.
func (w *Writer) Append(rec Record) error {
	if rec.WallNS == 0 {
		rec.WallNS = time.Now().UnixNano()
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("journal: encode: %w", err)
	}
	if len(payload) > maxRecord {
		return fmt.Errorf("journal: record %d bytes exceeds the %d limit", len(payload), maxRecord)
	}
	frame := make([]byte, 8+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[8:], payload)

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errors.New("journal: writer closed")
	}
	start := time.Now()
	if _, err := w.f.Write(frame); err != nil {
		w.reg.Counter("journal.append_errors_total").Inc()
		return fmt.Errorf("journal: append: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		w.reg.Counter("journal.append_errors_total").Inc()
		return fmt.Errorf("journal: fsync: %w", err)
	}
	w.reg.Counter("journal.appends_total").Inc()
	w.reg.Counter("journal.bytes_total").Add(int64(len(frame)))
	w.reg.Histogram("journal.fsync_ns").Observe(float64(time.Since(start).Nanoseconds()))
	return nil
}

// Close syncs and closes the file. Further appends error.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return fmt.Errorf("journal: close sync: %w", err)
	}
	return w.f.Close()
}

// Replayed is the result of scanning a journal.
type Replayed struct {
	Records []Record
	// Torn reports the scan stopped before end-of-file — the expected
	// artifact of a crash mid-append (or tail corruption). Everything
	// in Records is intact; TailErr says why the scan stopped.
	Torn    bool
	TailErr error
}

// Replay scans the journal at path. A missing file is an empty journal
// (fresh state dir), not an error. A torn or corrupt tail yields the
// intact prefix with Torn set; only I/O failures and a wrong header
// are hard errors.
func Replay(path string) (*Replayed, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return &Replayed{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: open for replay: %w", err)
	}
	defer f.Close()
	return Decode(f)
}

// Decode scans a journal stream. It never panics, whatever the bytes:
// an invalid header is an error (wrong file, not a torn one); a
// truncated or CRC-failing tail ends the scan with Torn set and the
// intact prefix in Records. An entirely empty stream is a valid empty
// journal (a crash can land between file creation and the header
// write).
func Decode(r io.Reader) (*Replayed, error) {
	br := bufio.NewReader(r)
	rep := &Replayed{}

	hdr := make([]byte, len(header))
	n, err := io.ReadFull(br, hdr)
	switch {
	case n == 0 && (err == io.EOF || err == io.ErrUnexpectedEOF):
		return rep, nil
	case err == io.ErrUnexpectedEOF:
		// A partial header matching the expected prefix is a crash
		// during file creation (torn); anything else is the wrong file.
		if bytes.HasPrefix([]byte(header), hdr[:n]) {
			rep.Torn = true
			rep.TailErr = fmt.Errorf("journal: truncated header (%d of %d bytes)", n, len(header))
			return rep, nil
		}
		return nil, fmt.Errorf("journal: not a journal (header %q)", hdr[:n])
	case err != nil:
		return nil, fmt.Errorf("journal: reading header: %w", err)
	case !bytes.Equal(hdr, []byte(header)):
		return nil, fmt.Errorf("journal: not a journal (header %q)", hdr)
	}

	var fh [8]byte
	for {
		n, err := io.ReadFull(br, fh[:])
		if err == io.EOF {
			return rep, nil
		}
		if err == io.ErrUnexpectedEOF {
			rep.Torn = true
			rep.TailErr = fmt.Errorf("journal: truncated frame header (%d of 8 bytes)", n)
			return rep, nil
		}
		if err != nil {
			return nil, fmt.Errorf("journal: reading frame: %w", err)
		}
		size := binary.BigEndian.Uint32(fh[0:4])
		sum := binary.BigEndian.Uint32(fh[4:8])
		if size > maxRecord {
			rep.Torn = true
			rep.TailErr = fmt.Errorf("journal: frame claims %d bytes (corrupt length)", size)
			return rep, nil
		}
		payload := make([]byte, size)
		if _, err := io.ReadFull(br, payload); err != nil {
			rep.Torn = true
			rep.TailErr = fmt.Errorf("journal: truncated payload: %v", err)
			return rep, nil
		}
		if crc32.ChecksumIEEE(payload) != sum {
			rep.Torn = true
			rep.TailErr = errors.New("journal: payload CRC mismatch")
			return rep, nil
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			rep.Torn = true
			rep.TailErr = fmt.Errorf("journal: payload not a record: %v", err)
			return rep, nil
		}
		rep.Records = append(rep.Records, rec)
	}
}
