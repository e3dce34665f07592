// Package journal is the durability substrate of the smaserve job plane:
// an append-only, CRC-framed write-ahead log over numbered segment files.
// Job specs, per-pair/per-shard completion checkpoints, and terminal
// statuses are appended as opaque payloads; after a crash the journal is
// replayed in order to rebuild the job plane's state, and a torn tail
// (the record the process died inside) is truncated away so the log is
// append-clean again.
//
// The format is deliberately minimal. Each segment file starts with an
// 8-byte header ("SMAWAL1\n"); each record is
//
//	[u32 payloadLen LE][u32 crc32c(payload) LE][payload]
//
// A zero length or an impossible length reads as a torn tail (a zeroed
// or half-written record), a checksum mismatch as corruption; both end
// replay at the last valid record. Replay never guesses past damage:
// records after a bad one — including later whole segments — are
// dropped, because their ordering can no longer be trusted. This is the
// classic WAL contract: the recovered state is exactly some prefix of
// what was acknowledged, and with SyncAlways (the default) that prefix
// includes every acknowledged append. See docs/ROBUSTNESS.md.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// segment header: identifies the file and pins the format version.
var segmentHeader = [8]byte{'S', 'M', 'A', 'W', 'A', 'L', '1', '\n'}

// maxPayload bounds one record (16 MiB). Journal records are small JSON
// events; anything larger is a parse gone off the rails, not data.
const maxPayload = 16 << 20

// castagnoli is the CRC-32C table (the polynomial storage systems use;
// hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Sync is the fsync policy applied to appends.
type Sync int

const (
	// SyncAlways fsyncs the segment after every append: an acknowledged
	// record survives power loss. This is the default and what the
	// recovery guarantees assume.
	SyncAlways Sync = iota
	// SyncNone leaves flushing to the OS: faster, but a crash may lose
	// the most recent acknowledged records (never corrupt older ones).
	SyncNone
)

// Options configure a journal. Zero values take the documented defaults.
type Options struct {
	// Sync is the append fsync policy (default SyncAlways).
	Sync Sync
	// MaxSegmentBytes rotates the active segment beyond this size
	// (default 8 MiB). Smaller segments bound the blast radius of tail
	// corruption and make compaction cheaper.
	MaxSegmentBytes int64
	// Logf receives replay repair notices (nil = silent).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.MaxSegmentBytes <= 0 {
		o.MaxSegmentBytes = 8 << 20
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// ReplayStats describes what Replay found and repaired.
type ReplayStats struct {
	// Segments scanned (including ones dropped after a corruption point).
	Segments int
	// Records successfully decoded and delivered.
	Records int
	// TruncatedBytes dropped from the damaged segment's tail.
	TruncatedBytes int64
	// DroppedSegments removed entirely because they followed damage.
	DroppedSegments int
	// Corrupt is true when a checksum mismatch was seen — real damage,
	// not just the half-written record of an interrupted append.
	Corrupt bool
}

// Journal is an append-only segmented write-ahead log. Safe for
// concurrent Append from multiple goroutines; Replay must complete
// before the first Append.
type Journal struct {
	dir string
	opt Options

	mu       sync.Mutex
	f        *os.File
	seq      int
	size     int64
	replayed bool
	closed   bool
}

// Open prepares a journal in dir, creating it if needed. Call Replay to
// recover existing records before appending.
func Open(dir string, opt Options) (*Journal, error) {
	opt = opt.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return &Journal{dir: dir, opt: opt}, nil
}

// segPath names segment seq.
func (j *Journal) segPath(seq int) string {
	return filepath.Join(j.dir, fmt.Sprintf("wal-%08d.seg", seq))
}

// segments lists existing segment sequence numbers in ascending order.
func (j *Journal) segments() ([]int, error) {
	entries, err := os.ReadDir(j.dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var seqs []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg"))
		if err != nil || n <= 0 {
			continue
		}
		seqs = append(seqs, n)
	}
	sort.Ints(seqs)
	return seqs, nil
}

// Replay scans every segment in order, delivering each valid payload to
// fn. Damage ends the scan: the damaged segment is truncated to its
// valid prefix and any later segments are deleted, so subsequent appends
// extend exactly the state fn observed. A non-nil error from fn aborts
// the replay (no repair is performed) and is returned unwrapped.
func (j *Journal) Replay(fn func(payload []byte) error) (ReplayStats, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var st ReplayStats
	if j.closed {
		return st, errors.New("journal: closed")
	}
	if j.replayed {
		return st, errors.New("journal: Replay after Append")
	}
	seqs, err := j.segments()
	if err != nil {
		return st, err
	}
	damagedAt := -1 // index into seqs where damage stopped the scan
	for i, seq := range seqs {
		st.Segments++
		res, err := j.replaySegment(seq, fn, &st)
		if err != nil {
			return st, err
		}
		if !res {
			damagedAt = i
			break
		}
	}
	if damagedAt >= 0 {
		for _, seq := range seqs[damagedAt+1:] {
			st.Segments++
			st.DroppedSegments++
			if err := os.Remove(j.segPath(seq)); err != nil {
				return st, fmt.Errorf("journal: dropping segment %d: %w", seq, err)
			}
			j.opt.Logf("journal: dropped segment %d (follows damage)", seq)
		}
		seqs = seqs[:damagedAt+1]
	}
	// Open the append position: the last surviving segment, or a fresh
	// first segment.
	if len(seqs) == 0 {
		if err := j.openSegmentLocked(1); err != nil {
			return st, err
		}
	} else {
		seq := seqs[len(seqs)-1]
		f, err := os.OpenFile(j.segPath(seq), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return st, fmt.Errorf("journal: %w", err)
		}
		info, err := f.Stat()
		if err != nil {
			f.Close()
			return st, fmt.Errorf("journal: %w", err)
		}
		if info.Size() < int64(len(segmentHeader)) {
			// Repair truncated into (or through) the header; the file can
			// no longer be appended to. Replace it with a fresh segment.
			f.Close()
			if err := os.Remove(j.segPath(seq)); err != nil {
				return st, fmt.Errorf("journal: %w", err)
			}
			if err := j.openSegmentLocked(seq); err != nil {
				return st, err
			}
		} else {
			j.f, j.seq, j.size = f, seq, info.Size()
		}
	}
	j.replayed = true
	return st, nil
}

// replaySegment scans one segment. It returns false when damage ended
// the scan (after truncating the file to its valid prefix); a false
// return means later segments must be dropped.
func (j *Journal) replaySegment(seq int, fn func([]byte) error, st *ReplayStats) (ok bool, err error) {
	path := j.segPath(seq)
	f, err := os.Open(path)
	if err != nil {
		return false, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return false, fmt.Errorf("journal: %w", err)
	}
	fileSize := info.Size()

	truncateTo := func(n int64, why string, corrupt bool) (bool, error) {
		if corrupt {
			st.Corrupt = true
		}
		st.TruncatedBytes += fileSize - n
		j.opt.Logf("journal: segment %d: %s at offset %d; truncating %d bytes", seq, why, n, fileSize-n)
		if err := os.Truncate(path, n); err != nil {
			return false, fmt.Errorf("journal: truncating segment %d: %w", seq, err)
		}
		return false, nil
	}

	var hdr [8]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil || hdr != segmentHeader {
		// No valid header: nothing in this file is trustworthy.
		return truncateTo(0, "bad segment header", err == nil)
	}
	r := &countingReader{r: f, n: 8}
	var frame [8]byte
	for {
		recStart := r.n
		if _, err := io.ReadFull(r, frame[:]); err != nil {
			if errors.Is(err, io.EOF) && r.n == recStart {
				return true, nil // clean segment boundary
			}
			return truncateTo(recStart, "torn record frame", false)
		}
		n := binary.LittleEndian.Uint32(frame[0:])
		sum := binary.LittleEndian.Uint32(frame[4:])
		if n == 0 || n > maxPayload || int64(n) > fileSize-r.n {
			// A zeroed or half-written frame, or a length pointing past the
			// end of the file — the torn tail of an interrupted append.
			return truncateTo(recStart, "torn record length", false)
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return truncateTo(recStart, "torn record payload", false)
		}
		if crc32.Checksum(payload, castagnoli) != sum {
			return truncateTo(recStart, "checksum mismatch", true)
		}
		st.Records++
		if err := fn(payload); err != nil {
			return false, err
		}
	}
}

// countingReader tracks the byte offset so truncation points are exact.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// openSegmentLocked creates segment seq with its header and makes it the
// append target. Caller holds j.mu.
func (j *Journal) openSegmentLocked(seq int) error {
	f, err := os.OpenFile(j.segPath(seq), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if _, err := f.Write(segmentHeader[:]); err != nil {
		f.Close()
		return fmt.Errorf("journal: %w", err)
	}
	if j.opt.Sync == SyncAlways {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("journal: %w", err)
		}
		j.syncDir()
	}
	if j.f != nil {
		j.f.Sync() //smavet:allow errdiscard -- the retiring segment was synced per append; this is belt and braces
		j.f.Close()
	}
	j.f, j.seq, j.size = f, seq, int64(len(segmentHeader))
	return nil
}

// syncDir fsyncs the journal directory so renames and creates are
// durable. Best effort: some filesystems refuse directory fsync.
func (j *Journal) syncDir() {
	d, err := os.Open(j.dir)
	if err != nil {
		return
	}
	d.Sync() //smavet:allow errdiscard -- directory fsync is advisory on some filesystems
	d.Close()
}

// Append writes one record and, under SyncAlways, fsyncs before
// returning: once Append returns nil the record survives a crash.
func (j *Journal) Append(payload []byte) error {
	if len(payload) == 0 {
		return errors.New("journal: empty payload")
	}
	if len(payload) > maxPayload {
		return fmt.Errorf("journal: payload %d exceeds cap %d", len(payload), maxPayload)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errors.New("journal: closed")
	}
	if j.f == nil {
		// Appending without a Replay: start fresh (new data dir).
		if err := j.openSegmentLocked(1); err != nil {
			return err
		}
		j.replayed = true
	}
	if j.size >= j.opt.MaxSegmentBytes {
		if err := j.openSegmentLocked(j.seq + 1); err != nil {
			return err
		}
	}
	var frame [8]byte
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, castagnoli))
	// One write call per piece; a crash between them is exactly the torn
	// tail Replay truncates.
	if _, err := j.f.Write(frame[:]); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if _, err := j.f.Write(payload); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.size += int64(8 + len(payload))
	if j.opt.Sync == SyncAlways {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("journal: %w", err)
		}
	}
	return nil
}

// Compact atomically replaces the whole journal with the given live
// payloads: they are written to a fresh segment (tmp file + rename), and
// every older segment is removed. Recovery calls this after replay so
// the log holds one record set per live job instead of the full history.
func (j *Journal) Compact(live [][]byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errors.New("journal: closed")
	}
	newSeq := j.seq + 1
	if j.f == nil {
		newSeq = 1
	}
	path := j.segPath(newSeq)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	size := int64(len(segmentHeader))
	write := func() error {
		if _, err := f.Write(segmentHeader[:]); err != nil {
			return err
		}
		var frame [8]byte
		for _, payload := range live {
			if len(payload) == 0 || len(payload) > maxPayload {
				return fmt.Errorf("bad payload size %d", len(payload))
			}
			binary.LittleEndian.PutUint32(frame[0:], uint32(len(payload)))
			binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, castagnoli))
			if _, err := f.Write(frame[:]); err != nil {
				return err
			}
			if _, err := f.Write(payload); err != nil {
				return err
			}
			size += int64(8 + len(payload))
		}
		return f.Sync()
	}
	if err := write(); err != nil {
		f.Close()
		os.Remove(tmp) //smavet:allow errdiscard -- tmp cleanup on the error path
		return fmt.Errorf("journal: compact: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp) //smavet:allow errdiscard -- tmp cleanup on the error path
		return fmt.Errorf("journal: compact: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp) //smavet:allow errdiscard -- tmp cleanup on the error path
		return fmt.Errorf("journal: compact: %w", err)
	}
	j.syncDir()
	// The new segment is durable; retire everything older.
	oldSeqs, err := j.segments()
	if err != nil {
		return err
	}
	if j.f != nil {
		j.f.Close()
		j.f = nil
	}
	for _, seq := range oldSeqs {
		if seq >= newSeq {
			continue
		}
		if err := os.Remove(j.segPath(seq)); err != nil {
			return fmt.Errorf("journal: compact: removing segment %d: %w", seq, err)
		}
	}
	j.syncDir()
	f, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	j.f, j.seq, j.size = f, newSeq, size
	j.replayed = true
	return nil
}

// Close fsyncs and closes the active segment. Further appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	if err != nil {
		return fmt.Errorf("journal: close: %w", err)
	}
	return nil
}
