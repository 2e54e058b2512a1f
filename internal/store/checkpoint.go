package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/tuple"
)

// On-disk checkpoint layout
//
// A checkpoint file (checkpoint-%06d.emt) is a fixed header followed by
// the retained windows as ordinary tuple binary frames — the same
// framing the segments use, so one codec serves both:
//
//	magic    uint32  "EMCK"
//	version  uint32  1
//	seq      uint64  checkpoint sequence number
//	horizon  uint64  segments with seq ≤ horizon are fully covered
//	frames   uint32  number of tuple frames that follow
//	tuples   uint64  total tuples across all frames
//	maxTime  uint64  float64 bits of the store's max timestamp
//	crc      uint32  CRC-32 (IEEE) of the 44 header bytes above
//	frames × tuple.WriteBinary frames (each self-checksummed)
//
// The MANIFEST commits a checkpoint: a tiny checksummed record naming
// the current checkpoint and its horizon:
//
//	magic    uint32  "EMMF"
//	version  uint32  1
//	seq      uint64
//	horizon  uint64
//	crc      uint32  CRC-32 (IEEE) of the 24 bytes above
//
// Both are written to a ".tmp" sibling, fsynced, and renamed into
// place, with a directory fsync after each rename, so a crash at any
// instant leaves either the old or the new file — never a torn one.

const (
	ckMagic       = 0x454d434b // "EMCK"
	manifestMagic = 0x454d4d46 // "EMMF"
	ckVersion     = 1

	ckHeaderSize = 48
	manifestSize = 28

	// manifestName is the commit record's file name inside cfg.Dir.
	manifestName = "MANIFEST"

	// ckFrameTuples chunks one window into multiple frames so a huge
	// window never exceeds the codec's per-frame sanity bound.
	ckFrameTuples = 1 << 16
)

// ErrCorruptCheckpoint marks an unreadable checkpoint or manifest.
// Recovery treats it as "this checkpoint does not exist" and falls back
// to the next candidate, ultimately to full segment replay.
var ErrCorruptCheckpoint = errors.New("store: corrupt checkpoint")

// CheckpointStats counts the store's checkpoint activity.
type CheckpointStats struct {
	// Checkpoints is the number of checkpoints committed (manifest
	// renamed into place).
	Checkpoints int64
	// Failures counts checkpoint attempts that aborted before commit.
	Failures int64
	// LastSeq is the sequence number of the newest committed checkpoint
	// (-1 before the first).
	LastSeq int64
	// LastWindows and LastTuples describe the newest committed
	// checkpoint's payload.
	LastWindows int64
	LastTuples  int64
	// SegmentsDeleted is the total number of segment files removed by
	// checkpoint compaction (recovery-time deletions are counted in
	// RecoveryStats instead).
	SegmentsDeleted int64
}

// RecoveryStats describes what Open did to rebuild the store: where the
// retained state came from and how much of the segment log had to be
// replayed. The crash-injection and restart tests assert against these
// counters; they are fixed once Open returns.
type RecoveryStats struct {
	// FromCheckpoint is true when the retained windows were loaded from
	// a checkpoint file rather than rebuilt by full log replay.
	FromCheckpoint bool
	// Columnar is true when recovery went through the columnar sidecar:
	// window bases stayed lazy instead of being decoded up front.
	Columnar bool
	// CheckpointSeq and CheckpointTuples identify the checkpoint used
	// (meaningful only when FromCheckpoint).
	CheckpointSeq    int
	CheckpointTuples int
	// CorruptCheckpoints counts checkpoint files that failed validation
	// and were skipped during recovery.
	CorruptCheckpoints int
	// SegmentsReplayed and TuplesReplayed count the segment suffix
	// actually replayed (all segments, under full replay).
	SegmentsReplayed int
	TuplesReplayed   int
	// SegmentsDeleted counts segment files removed at Open: covered
	// segments left behind by an interrupted compaction, and segments
	// proven to lie entirely behind the retention horizon.
	SegmentsDeleted int
}

// checkpointName returns the file name of checkpoint seq.
func checkpointName(seq int) string { return fmt.Sprintf("checkpoint-%06d.emt", seq) }

// parseSeq extracts the numeric sequence of a "<prefix>NNNNNN.emt" file
// name; ok is false for names that do not match.
func parseSeq(name, prefix string) (int, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ".emt") {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(".emt")]
	if mid == "" {
		return 0, false
	}
	n, err := strconv.Atoi(mid)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// checkpointSeqs lists the checkpoint sequence numbers present in dir,
// newest first.
func checkpointSeqs(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: read dir: %w", err)
	}
	var seqs []int
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if seq, ok := parseSeq(e.Name(), "checkpoint-"); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(seqs)))
	return seqs, nil
}

// ckHeader is the decoded fixed header of a checkpoint file.
type ckHeader struct {
	seq     int
	horizon int
	frames  int
	tuples  int
	maxTime float64
}

func encodeCkHeader(h ckHeader) []byte {
	buf := make([]byte, ckHeaderSize)
	binary.LittleEndian.PutUint32(buf[0:], ckMagic)
	binary.LittleEndian.PutUint32(buf[4:], ckVersion)
	binary.LittleEndian.PutUint64(buf[8:], uint64(int64(h.seq)))
	binary.LittleEndian.PutUint64(buf[16:], uint64(int64(h.horizon)))
	binary.LittleEndian.PutUint32(buf[24:], uint32(h.frames))
	binary.LittleEndian.PutUint64(buf[28:], uint64(int64(h.tuples)))
	binary.LittleEndian.PutUint64(buf[36:], math.Float64bits(h.maxTime))
	binary.LittleEndian.PutUint32(buf[44:], crc32.ChecksumIEEE(buf[:44]))
	return buf
}

func decodeCkHeader(buf []byte) (ckHeader, error) {
	if len(buf) < ckHeaderSize {
		return ckHeader{}, fmt.Errorf("%w: short header", ErrCorruptCheckpoint)
	}
	if crc32.ChecksumIEEE(buf[:44]) != binary.LittleEndian.Uint32(buf[44:]) {
		return ckHeader{}, fmt.Errorf("%w: header checksum", ErrCorruptCheckpoint)
	}
	if binary.LittleEndian.Uint32(buf[0:]) != ckMagic {
		return ckHeader{}, fmt.Errorf("%w: bad magic", ErrCorruptCheckpoint)
	}
	if v := binary.LittleEndian.Uint32(buf[4:]); v != ckVersion {
		return ckHeader{}, fmt.Errorf("%w: version %d", ErrCorruptCheckpoint, v)
	}
	return ckHeader{
		seq:     int(int64(binary.LittleEndian.Uint64(buf[8:]))),
		horizon: int(int64(binary.LittleEndian.Uint64(buf[16:]))),
		frames:  int(binary.LittleEndian.Uint32(buf[24:])),
		tuples:  int(int64(binary.LittleEndian.Uint64(buf[28:]))),
		maxTime: math.Float64frombits(binary.LittleEndian.Uint64(buf[36:])),
	}, nil
}

// readCheckpointFile fully validates and loads one checkpoint file: the
// header checksum, every frame's checksum, the frame count, the tuple
// total, and a clean EOF all have to line up, or the whole file is
// rejected — recovery never trusts half a checkpoint.
func readCheckpointFile(path string) (ckHeader, []tuple.Batch, error) {
	f, err := os.Open(path)
	if err != nil {
		return ckHeader{}, nil, fmt.Errorf("%w: %v", ErrCorruptCheckpoint, err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	hdrBuf := make([]byte, ckHeaderSize)
	if _, err := io.ReadFull(r, hdrBuf); err != nil {
		return ckHeader{}, nil, fmt.Errorf("%w: header: %v", ErrCorruptCheckpoint, err)
	}
	hdr, err := decodeCkHeader(hdrBuf)
	if err != nil {
		return ckHeader{}, nil, err
	}
	batches := make([]tuple.Batch, 0, hdr.frames)
	total := 0
	for i := 0; i < hdr.frames; i++ {
		b, err := tuple.ReadBinary(r)
		if err != nil {
			return ckHeader{}, nil, fmt.Errorf("%w: frame %d: %v", ErrCorruptCheckpoint, i, err)
		}
		total += len(b)
		batches = append(batches, b)
	}
	if _, err := tuple.ReadBinary(r); !errors.Is(err, io.EOF) {
		return ckHeader{}, nil, fmt.Errorf("%w: trailing data after %d frames", ErrCorruptCheckpoint, hdr.frames)
	}
	if total != hdr.tuples {
		return ckHeader{}, nil, fmt.Errorf("%w: %d tuples, header claims %d", ErrCorruptCheckpoint, total, hdr.tuples)
	}
	return hdr, batches, nil
}

// readManifest reads and validates dir's MANIFEST commit record.
func readManifest(dir string) (seq, horizon int, err error) {
	buf, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return 0, 0, fmt.Errorf("%w: manifest: %v", ErrCorruptCheckpoint, err)
	}
	if len(buf) != manifestSize {
		return 0, 0, fmt.Errorf("%w: manifest length %d", ErrCorruptCheckpoint, len(buf))
	}
	if crc32.ChecksumIEEE(buf[:24]) != binary.LittleEndian.Uint32(buf[24:]) {
		return 0, 0, fmt.Errorf("%w: manifest checksum", ErrCorruptCheckpoint)
	}
	if binary.LittleEndian.Uint32(buf[0:]) != manifestMagic {
		return 0, 0, fmt.Errorf("%w: manifest magic", ErrCorruptCheckpoint)
	}
	if v := binary.LittleEndian.Uint32(buf[4:]); v != ckVersion {
		return 0, 0, fmt.Errorf("%w: manifest version %d", ErrCorruptCheckpoint, v)
	}
	seq = int(int64(binary.LittleEndian.Uint64(buf[8:])))
	horizon = int(int64(binary.LittleEndian.Uint64(buf[16:])))
	return seq, horizon, nil
}

// Checkpoint persists the retained windows to a new checkpoint file and
// compacts the segment log behind it. The sequence is:
//
//  1. Under the store lock: snapshot the retained windows and seal the
//     open segment, rotating to a fresh one. Everything appended so far
//     is covered by the snapshot; everything after the rotation lands
//     in segments the checkpoint does not claim. The sealed handle is
//     retired, not closed, so a concurrent every-batch Append that
//     already captured it can still run its own fsync against it. The
//     seal fsync itself runs outside the lock.
//  2. Write checkpoint-%06d.emt to a temp file, fsync, rename, fsync
//     the directory.
//  3. Commit it by writing MANIFEST the same way.
//  4. Compact: delete segments at or below the checkpoint horizon
//     (sparing the newest Config.KeepSegments of them) and checkpoint
//     files superseded by this one.
//
// A failure before step 3 leaves the previous checkpoint (or the plain
// segment log) authoritative; a failure during step 4 is reported but
// the checkpoint itself stands, and the deletions are retried by the
// next checkpoint or at the next Open. Memory-only stores (no Dir)
// return nil without doing anything. Checkpoint is safe for concurrent
// use with Append and queries; concurrent Checkpoint calls serialize.
func (s *Store) Checkpoint() error {
	s.ckMu.Lock()
	defer s.ckMu.Unlock()

	s.mu.Lock()
	if s.cfg.Dir == "" {
		s.mu.Unlock()
		return nil
	}
	if s.closed {
		s.mu.Unlock()
		return errors.New("store: checkpoint after close")
	}
	// Handles retired by the previous checkpoint are doomed now; any
	// append still fsyncing one holds a reference that defers the close.
	for _, h := range s.retired {
		h.doom()
	}
	s.retired = nil
	idxs := s.unionIndexesLocked()
	batches := make([]tuple.Batch, len(idxs))
	var lazyIdx []int // positions in idxs whose base must come from the sidecar
	for i, c := range idxs {
		batches[i] = s.windows[c].Clone()
		if s.col.lazy[c] != nil {
			lazyIdx = append(lazyIdx, i)
		}
	}
	var cr *colReader
	if len(lazyIdx) > 0 && s.col.rd != nil {
		cr = s.col.rd
		cr.acquire()
	} else if len(s.col.lazy) == 0 {
		// Every lazy window has been materialized or evicted; no new ones
		// can appear (they only come from Open), so the old sidecar's
		// reader is done. Retiring it lets compaction reclaim the file on
		// every platform.
		s.retireReaderLocked()
	}
	prevCkSeq := s.recovery.CheckpointSeq
	spareCol := -1
	if s.col.rd != nil {
		spareCol = s.col.rd.rd.Seq()
	}
	maxTime := s.maxTime
	horizon := s.segSeq
	var sealSync *segHandle
	if s.seg != nil {
		// Every acknowledged every-batch append already fsynced its own
		// frame, and an in-flight one holds the (still open, retired)
		// handle and will. Defer the seal fsync past the lock so queries
		// never stall behind it.
		sealSync = s.seg
		sealSync.acquire()
		s.retired = append(s.retired, s.seg)
		s.seg = nil
		s.segSeq++
		// A failed open here is not fatal: persistLocked re-opens the
		// segment on the next append, exactly as after a failed rotation.
		_ = s.openSegment()
	} else {
		horizon = s.segSeq - 1
	}
	seq := s.ckSeq
	s.ckSeq++
	s.mu.Unlock()

	if sealSync != nil {
		err := s.doSync(sealSync.f)
		sealSync.release()
		if err != nil {
			// The rotation stands (the segment keeps its frames and
			// recovery replays it); only this checkpoint is abandoned.
			if cr != nil {
				cr.release()
			}
			s.failCheckpoint()
			return fmt.Errorf("store: checkpoint: seal segment: %w", err)
		}
	}

	// Assemble still-lazy windows outside the lock: their snapshot is the
	// immutable sidecar base plus the suffix cloned above. A corrupt
	// sidecar block falls back to the row checkpoint file it was derived
	// from.
	var asmErr error
	for _, i := range lazyIdx {
		c := idxs[i]
		var base tuple.Batch
		err := errors.New("store: columnar reader closed")
		if cr != nil {
			base, err = cr.rd.WindowTuples(c)
		}
		if err != nil {
			s.col.fallbacks.Add(1)
			base, err = s.readCheckpointWindow(prevCkSeq, c)
		}
		if err != nil {
			asmErr = fmt.Errorf("store: checkpoint: assemble window %d: %w", c, err)
			break
		}
		batches[i] = append(base, batches[i]...)
	}
	if cr != nil {
		cr.release()
	}
	if asmErr != nil {
		s.failCheckpoint()
		return asmErr
	}
	// Count from the assembled batches, not the snapshot total: they are
	// what the file will actually hold, and the header must agree with
	// the frames even if lazy assembly returned a surprise.
	tuples := 0
	for _, b := range batches {
		tuples += len(b)
	}

	if err := s.writeCheckpointFile(seq, horizon, batches, tuples, maxTime); err != nil {
		s.failCheckpoint()
		return err
	}
	if s.cfg.Columnar.Enabled {
		// Sidecar before MANIFEST: a crash in between leaves a committed
		// pair one rename away, and a sidecar write failure only costs
		// the accelerator (the checkpoint still commits).
		s.writeSidecar(seq, idxs, batches)
	}
	if err := s.writeManifest(seq, horizon); err != nil {
		s.failCheckpoint()
		return err
	}
	s.ckStatsMu.Lock()
	s.ckStats.Checkpoints++
	s.ckStats.LastSeq = int64(seq)
	s.ckStats.LastWindows = int64(len(idxs))
	s.ckStats.LastTuples = int64(tuples)
	s.ckStatsMu.Unlock()

	deleted, err := s.compact(seq, horizon, spareCol)
	s.ckStatsMu.Lock()
	s.ckStats.SegmentsDeleted += int64(deleted)
	s.ckStatsMu.Unlock()
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	return nil
}

func (s *Store) failCheckpoint() {
	s.ckStatsMu.Lock()
	s.ckStats.Failures++
	s.ckStatsMu.Unlock()
}

// CheckpointStats returns the checkpoint counters.
func (s *Store) CheckpointStats() CheckpointStats {
	s.ckStatsMu.Lock()
	defer s.ckStatsMu.Unlock()
	return s.ckStats
}

// RecoveryStats reports what this store's Open did to rebuild state. It
// is fixed once Open returns.
func (s *Store) RecoveryStats() RecoveryStats { return s.recovery }

// atomicReplace installs path crash-safely: the payload is written to a
// ".tmp" sibling, fsynced, closed, renamed into place, and the
// directory fsynced — a crash at any instant leaves either the old or
// the new file. The temp file is removed on every failure path. File
// fsyncs go through syncSeg (hookable, but NOT counted in
// DurabilityStats.Syncs, which tracks append-path durability only).
func (s *Store) atomicReplace(path string, fill func(w io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := fill(bw); err != nil {
		return fail(err)
	}
	if err := bw.Flush(); err != nil {
		return fail(err)
	}
	if err := s.syncSeg(f); err != nil {
		return fail(fmt.Errorf("sync: %w", err))
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("close: %w", err)
	}
	if err := s.renameFile(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("rename: %w", err)
	}
	return s.syncDir()
}

// writeCheckpointFile writes one checkpoint atomically. Windows larger
// than ckFrameTuples are chunked across several frames.
func (s *Store) writeCheckpointFile(seq, horizon int, batches []tuple.Batch, tuples int, maxTime float64) error {
	frames := 0
	for _, b := range batches {
		frames += (len(b) + ckFrameTuples - 1) / ckFrameTuples
	}
	err := s.atomicReplace(filepath.Join(s.cfg.Dir, checkpointName(seq)), func(w io.Writer) error {
		if _, err := w.Write(encodeCkHeader(ckHeader{
			seq: seq, horizon: horizon, frames: frames, tuples: tuples, maxTime: maxTime,
		})); err != nil {
			return err
		}
		for _, b := range batches {
			for off := 0; off < len(b); off += ckFrameTuples {
				end := off + ckFrameTuples
				if end > len(b) {
					end = len(b)
				}
				if err := s.writeFrame(w, b[off:end]); err != nil {
					return fmt.Errorf("write frame: %w", err)
				}
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("store: checkpoint: %w", err)
	}
	return nil
}

// writeManifest commits checkpoint seq by atomically replacing MANIFEST.
func (s *Store) writeManifest(seq, horizon int) error {
	buf := make([]byte, manifestSize)
	binary.LittleEndian.PutUint32(buf[0:], manifestMagic)
	binary.LittleEndian.PutUint32(buf[4:], ckVersion)
	binary.LittleEndian.PutUint64(buf[8:], uint64(int64(seq)))
	binary.LittleEndian.PutUint64(buf[16:], uint64(int64(horizon)))
	binary.LittleEndian.PutUint32(buf[24:], crc32.ChecksumIEEE(buf[:24]))
	err := s.atomicReplace(filepath.Join(s.cfg.Dir, manifestName), func(w io.Writer) error {
		_, err := w.Write(buf)
		return err
	})
	if err != nil {
		return fmt.Errorf("store: manifest: %w", err)
	}
	return nil
}

// syncDir fsyncs cfg.Dir so a just-renamed file survives a crash.
func (s *Store) syncDir() error {
	d, err := os.Open(s.cfg.Dir)
	if err != nil {
		return fmt.Errorf("sync dir: %w", err)
	}
	err = s.syncSeg(d)
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("sync dir: %w", err)
	}
	return nil
}

// compact removes segment files fully covered by checkpoint ckSeq
// (those at or below horizon, sparing the newest Config.KeepSegments),
// checkpoint files other than ckSeq, and columnar sidecars other than
// ckSeq's — except spareCol, the sidecar a live reader still serves
// lazy windows from (deleted by a later compaction once the reader
// retires). Deletion failures are joined and reported but never undo
// the checkpoint — the files are retried by the next compaction or at
// the next Open.
func (s *Store) compact(ckSeq, horizon, spareCol int) (deleted int, err error) {
	var errs []error
	names, err := segmentNames(s.cfg.Dir)
	if err != nil {
		return 0, err
	}
	for _, name := range s.coveredToDelete(names, horizon) {
		if rerr := s.removeFile(filepath.Join(s.cfg.Dir, name)); rerr != nil {
			errs = append(errs, rerr)
		} else {
			deleted++
		}
	}
	seqs, err := checkpointSeqs(s.cfg.Dir)
	if err != nil {
		errs = append(errs, err)
	}
	for _, seq := range seqs {
		if seq == ckSeq {
			continue
		}
		if rerr := s.removeFile(filepath.Join(s.cfg.Dir, checkpointName(seq))); rerr != nil {
			errs = append(errs, rerr)
		}
	}
	for _, seq := range colblockSeqs(s.cfg.Dir) {
		if seq == ckSeq || seq == spareCol {
			continue
		}
		if rerr := s.removeFile(filepath.Join(s.cfg.Dir, colblockName(seq))); rerr != nil {
			errs = append(errs, rerr)
		}
	}
	return deleted, errors.Join(errs...)
}

// coveredToDelete picks the checkpoint-covered segments (seq ≤ horizon)
// that compaction should delete, sparing the newest Config.KeepSegments
// of them. Shared by Checkpoint's compaction and recovery's resume of
// an interrupted one so both always agree on which segments survive.
func (s *Store) coveredToDelete(names []string, horizon int) []string {
	var covered []string
	for _, name := range names {
		if seq, ok := parseSeq(name, "segment-"); ok && seq <= horizon {
			covered = append(covered, name)
		}
	}
	keep := s.cfg.KeepSegments
	if keep > len(covered) {
		keep = len(covered)
	}
	return covered[:len(covered)-keep]
}
