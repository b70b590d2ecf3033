// Package feedback closes the loop the rest of the system leaves open:
// it records what customers actually did with the recommendations the
// serving layer emitted, accounts realized profit against each rule's
// projected Prof_re, and raises a drift signal when reality falls behind
// the projections — the trigger the model registry's rebuild-and-swap
// path has been waiting for.
//
// Outcomes are keyed by the stable content-hash rule IDs of
// rules.StableID, so a purchase reported hours after the recommendation
// joins back to the exact rule that fired even if the serving model has
// been hot-swapped in between. Records are durable: every accepted
// outcome is framed, checksummed, and appended to a write-ahead log
// before it touches the in-memory aggregates, and a restart replays the
// log back to byte-identical statistics.
package feedback

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// WAL framing. Each segment file starts with an 8-byte magic; every
// record is a length-prefixed, CRC-framed payload:
//
//	[4B little-endian payload length][4B CRC-32C of payload][payload]
//
// The CRC covers the payload only; a corrupted length shows up as either
// an impossible size (> maxRecordBytes) or a CRC mismatch on the
// misframed bytes, so both framing fields are effectively protected.
const (
	segMagic       = "PMFBWAL1"
	frameHeader    = 8
	maxRecordBytes = 1 << 20
)

// castagnoli is the CRC-32C polynomial table (same polynomial modern
// storage stacks use; hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// WALOptions tunes durability and rotation.
type WALOptions struct {
	// MaxSegmentBytes rotates the live segment once it grows past this
	// size (default 64 MiB). Rotation is a frame boundary: a record never
	// spans segments.
	MaxSegmentBytes int64

	// SyncEvery fsyncs the live segment after every n-th append: 1 is
	// fsync-per-record (strongest durability, slowest), larger values
	// amortize the sync over batches, 0 never fsyncs explicitly and
	// leaves durability to the OS page cache (fastest; crash may lose the
	// tail, which replay tolerates). Default 1.
	SyncEvery int
}

// WAL is an append-only outcome log over numbered segment files in one
// directory (outcomes-00000001.wal, …). Appends serialize on an internal
// mutex held by the owning Collector; the WAL itself is not safe for
// unsynchronized concurrent use.
type WAL struct {
	dir  string
	opts WALOptions

	f         *os.File
	seg       int   // index of the live segment
	size      int64 // bytes in the live segment
	sinceSync int
	frame     []byte // reusable frame-assembly buffer
}

func segName(i int) string { return fmt.Sprintf("outcomes-%08d.wal", i) }

// segments lists the WAL segment indexes present in dir, ascending.
func segments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []int
	for _, e := range entries {
		var i int
		if _, err := fmt.Sscanf(e.Name(), "outcomes-%08d.wal", &i); err == nil && segName(i) == e.Name() {
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out, nil
}

// OpenWAL opens (creating if needed) the log in dir for appending. The
// live segment's tail is repaired first: a torn or corrupted final frame
// — the signature of a crash mid-append — is truncated away so new
// appends extend a clean prefix. Call Replay before OpenWAL to rebuild
// state; both find the log's end with the same frame walk (scanSegment),
// so they always agree on it, and a live segment whose magic is whole
// but wrong is refused by both and left as it is.
func OpenWAL(dir string, opts WALOptions) (*WAL, error) {
	if opts.MaxSegmentBytes <= 0 {
		opts.MaxSegmentBytes = 64 << 20
	}
	if opts.SyncEvery < 0 {
		return nil, fmt.Errorf("feedback: negative SyncEvery %d", opts.SyncEvery)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("feedback: creating WAL dir: %w", err)
	}
	segs, err := segments(dir)
	if err != nil {
		return nil, fmt.Errorf("feedback: listing WAL dir: %w", err)
	}
	w := &WAL{dir: dir, opts: opts, seg: 1}
	if len(segs) == 0 {
		if err := w.createSegment(1); err != nil {
			return nil, err
		}
		return w, nil
	}
	last := segs[len(segs)-1]
	path := filepath.Join(dir, segName(last))
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("feedback: reading live segment: %w", err)
	}
	end, _, err := scanSegment(data, nil)
	if err != nil {
		return nil, fmt.Errorf("%w: %s", err, path)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("feedback: opening live segment: %w", err)
	}
	if err := f.Truncate(int64(end)); err != nil {
		f.Close()
		return nil, fmt.Errorf("feedback: repairing torn tail of %s: %w", path, err)
	}
	if end == 0 {
		// The crash hit segment creation itself: restore the magic so the
		// segment stays parseable.
		if _, err := f.Write([]byte(segMagic)); err != nil {
			f.Close()
			return nil, fmt.Errorf("feedback: rewriting segment magic: %w", err)
		}
		end = len(segMagic)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	w.f, w.seg, w.size = f, last, int64(end)
	return w, nil
}

// createSegment starts segment i: an empty file holding only the magic.
func (w *WAL) createSegment(i int) error {
	f, err := os.OpenFile(filepath.Join(w.dir, segName(i)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("feedback: creating segment %d: %w", i, err)
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return fmt.Errorf("feedback: writing segment magic: %w", err)
	}
	w.f, w.seg, w.size = f, i, int64(len(segMagic))
	return nil
}

// Append frames payload and writes it to the live segment, rotating
// first if the segment is full and fsyncing per the sync policy. The
// record is on its way to disk when Append returns nil; with SyncEvery 1
// it is durably on disk.
//
//wal:journal
func (w *WAL) Append(payload []byte) error {
	if len(payload) == 0 || len(payload) > maxRecordBytes {
		return fmt.Errorf("feedback: record of %d bytes outside (0, %d]", len(payload), maxRecordBytes)
	}
	if w.size+int64(frameHeader+len(payload)) > w.opts.MaxSegmentBytes && w.size > int64(len(segMagic)) {
		if err := w.rotate(); err != nil {
			return err
		}
	}
	need := frameHeader + len(payload)
	if cap(w.frame) < need {
		w.frame = make([]byte, need)
	}
	frame := w.frame[:need]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	copy(frame[frameHeader:], payload)
	if _, err := w.f.Write(frame); err != nil {
		return fmt.Errorf("feedback: appending record: %w", err)
	}
	w.size += int64(need)
	w.sinceSync++
	if w.opts.SyncEvery > 0 && w.sinceSync >= w.opts.SyncEvery {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("feedback: fsync: %w", err)
		}
		w.sinceSync = 0
	}
	return nil
}

// rotate seals the live segment (fsynced regardless of policy: sealed
// segments are never tail-repaired, so they must be complete) and starts
// the next one.
func (w *WAL) rotate() error {
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("feedback: fsync before rotation: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("feedback: sealing segment %d: %w", w.seg, err)
	}
	return w.createSegment(w.seg + 1)
}

// Sync forces an fsync of the live segment independent of the policy.
//
//wal:journal
func (w *WAL) Sync() error { return w.f.Sync() }

// Rotate seals the live segment on demand — the hook the cluster
// shipper uses to turn buffered outcomes into a shippable (sealed,
// fully fsynced) segment without waiting for MaxSegmentBytes. A live
// segment holding no records is left alone: rotating it would mint
// empty segments every tick.
func (w *WAL) Rotate() error {
	if w.size <= int64(len(segMagic)) {
		return nil
	}
	return w.rotate()
}

// Size returns the total bytes across all segments, and the number of
// segments, for metrics and benchmarks.
func (w *WAL) Size() (bytes int64, segs int, err error) {
	list, err := segments(w.dir)
	if err != nil {
		return 0, 0, err
	}
	for _, i := range list {
		info, err := os.Stat(filepath.Join(w.dir, segName(i)))
		if err != nil {
			return 0, 0, err
		}
		bytes += info.Size()
	}
	return bytes, len(list), nil
}

// Close fsyncs and closes the live segment.
func (w *WAL) Close() error {
	if w.f == nil {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// ReplayStats reports what a replay pass found.
type ReplayStats struct {
	Segments     int   `json:"segments"`
	Records      int64 `json:"records"`
	DroppedBytes int64 `json:"droppedBytes"` // torn/corrupt tail discarded from the last segment
}

// Replay streams every intact record of the log in append order through
// fn. A torn or corrupted frame in the LAST segment is treated as the
// tail of a crashed append: replay stops cleanly there and reports the
// dropped bytes. The same damage in an earlier (sealed) segment is real
// data loss and fails the replay, as does a segment whose magic is whole
// but wrong. fn returning an error aborts.
func Replay(dir string, fn func(payload []byte) error) (ReplayStats, error) {
	var rs ReplayStats
	segs, err := segments(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return rs, nil
		}
		return rs, fmt.Errorf("feedback: listing WAL dir: %w", err)
	}
	rs.Segments = len(segs)
	for n, i := range segs {
		path := filepath.Join(dir, segName(i))
		data, err := os.ReadFile(path)
		if err != nil {
			return rs, fmt.Errorf("feedback: reading segment: %w", err)
		}
		end, damage, err := scanSegment(data, func(payload []byte) error {
			if err := fn(payload); err != nil {
				return err
			}
			rs.Records++
			return nil
		})
		switch {
		case errors.Is(err, errNotSegment):
			return rs, fmt.Errorf("%w: %s", err, path)
		case err != nil:
			return rs, err
		case damage != "" && n < len(segs)-1:
			return rs, fmt.Errorf("feedback: sealed segment %s corrupt: %s", path, damage)
		}
		rs.DroppedBytes += int64(len(data) - end)
	}
	return rs, nil
}

// SealedSegmentPaths lists the sealed WAL segments of dir in ascending
// segment order — every segment except the live (highest-numbered) one.
// Sealed segments are immutable, so callers may read them without
// coordinating with the appender; this is the shipping unit of the
// cluster tier.
func SealedSegmentPaths(dir string) ([]string, error) {
	segs, err := segments(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("feedback: listing WAL dir: %w", err)
	}
	if len(segs) < 2 {
		return nil, nil
	}
	out := make([]string, 0, len(segs)-1)
	for _, i := range segs[:len(segs)-1] {
		out = append(out, filepath.Join(dir, segName(i)))
	}
	return out, nil
}

// SegmentSeq recovers a segment's sequence number from its file name.
// Segment numbers are assigned monotonically by the appender, so
// (node, sequence) totally orders one node's history — the property
// the cluster spool's deterministic replay is built on.
func SegmentSeq(path string) (int, error) {
	var i int
	base := filepath.Base(path)
	if _, err := fmt.Sscanf(base, "outcomes-%08d.wal", &i); err != nil || segName(i) != base {
		return 0, fmt.Errorf("feedback: %q is not a WAL segment name", base)
	}
	return i, nil
}

// ParseSegment streams every record of one complete segment image
// through fn. Unlike Replay it is strict: sealed segments are complete
// by construction, so any torn or corrupted frame is an error, never a
// tolerated tail. This is the validation the cluster aggregator runs on
// shipped segments before admitting them to the spool.
func ParseSegment(data []byte, fn func(payload []byte) error) error {
	_, damage, err := scanSegment(data, fn)
	if err == nil && damage != "" {
		err = fmt.Errorf("feedback: %s", damage)
	}
	return err
}

// errNotSegment refuses a file whose magic is whole but wrong: no prefix
// of it is a log, so nothing may replay, repair or admit it.
var errNotSegment = errors.New("feedback: not a WAL segment")

// scanSegment is the one frame walk over a segment image, which Replay,
// ParseSegment and OpenWAL's tail repair share so that they cannot
// disagree on where a log ends. It checks the magic, calls fn (when
// non-nil) on the payload of each intact frame in order, and returns
// end, the length of the intact prefix: the end of the last intact
// frame, or of the magic. damage says why the image does not end there,
// "" when it does; a magic cut short (a crash at segment creation) is
// damage with end 0. err is errNotSegment for a whole but wrong magic,
// or what fn returned.
func scanSegment(data []byte, fn func(payload []byte) error) (end int, damage string, err error) {
	if len(data) < len(segMagic) {
		return 0, "torn segment magic", nil
	}
	if string(data[:len(segMagic)]) != segMagic {
		return 0, "", errNotSegment
	}
	off := len(segMagic)
	for off < len(data) {
		rest := len(data) - off
		if rest < frameHeader {
			return off, fmt.Sprintf("torn frame header at offset %d", off), nil
		}
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		if n == 0 || n > maxRecordBytes {
			return off, fmt.Sprintf("impossible record length %d at offset %d", n, off), nil
		}
		if rest < frameHeader+n {
			return off, fmt.Sprintf("torn record payload at offset %d", off), nil
		}
		payload := data[off+frameHeader : off+frameHeader+n]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[off+4:off+8]) {
			return off, fmt.Sprintf("CRC mismatch at offset %d", off), nil
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return off, "", err
			}
		}
		off += frameHeader + n
	}
	return off, "", nil
}
