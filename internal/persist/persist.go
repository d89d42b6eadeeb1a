// Package persist gives querycaused sessions a life beyond the
// process: it serializes a session's interned columnar database
// (internal/rel dictionary + per-column code vectors), its prepared and
// classified queries, and its hot dichotomy certificates to a
// versioned on-disk snapshot, so a restarted server serves warm
// explains without re-ingesting or re-classifying anything.
//
// # File format
//
// One session per file, <id>.qcs inside the store directory:
//
//	offset 0   magic "QCSN" (4 bytes)
//	offset 4   format version (1 byte)
//	offset 5   payload length (8 bytes, big endian)
//	offset 13  payload (gob-encoded Snapshot)
//	then       CRC-32 (IEEE) of the payload (4 bytes, big endian)
//
// Load verifies magic, version, length, and checksum before decoding;
// a flipped bit anywhere in the payload is ErrChecksum, a snapshot
// written by a future format is ErrVersion, and neither is ever
// half-applied (decode happens only after both checks pass). Writes go
// through a temp file + rename, so a crash mid-write leaves the
// previous snapshot intact.
//
// # Determinism
//
// The snapshot stores the dictionary in code order and the tuples in
// TupleID (insertion) order, each argument as its interned code.
// Replaying rel.Database.Add in that order re-interns values in the
// identical order, so the restored database has byte-identical
// dictionary tables, code vectors, and tuple IDs — lineage, cached
// certificates, and responsibility rankings carry over exactly
// (persist_test asserts this column by column).
//
// # Write-behind
//
// WriteBehind decouples snapshotting from the request path: handlers
// mark a session dirty (upload, prepare, certificate miss) and a
// background flusher snapshots marked sessions at a configurable
// interval. Flush is synchronous and is called from graceful drain, so
// a SIGTERM'd server persists everything before exiting 0. Snapshot
// closures read live session state at flush time, so coalesced marks
// lose nothing.
package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/querycause/querycause/internal/rel"
	"github.com/querycause/querycause/internal/rewrite"
)

// Format constants. Version is bumped on any incompatible payload
// change; old binaries reject newer snapshots with ErrVersion instead
// of misreading them. Version 2 added the per-tuple Deleted flag
// (mutable sessions): a v1 binary would silently drop deletions, so
// the frame version forces the rejection. This binary still reads v1
// snapshots — a missing Deleted field gob-decodes to false.
const (
	Version    = 2
	minVersion = 1
	magic      = "QCSN"
	ext        = ".qcs"
	headerLen  = len(magic) + 1 + 8 // magic + version + payload length
)

var (
	// ErrChecksum means the payload bytes do not match the stored CRC —
	// the snapshot is corrupt and must not be loaded.
	ErrChecksum = errors.New("persist: snapshot checksum mismatch")
	// ErrVersion means the snapshot was written by a newer format
	// version than this binary understands.
	ErrVersion = errors.New("persist: unsupported snapshot format version")
	// ErrNotFound means no snapshot exists for the requested session.
	ErrNotFound = errors.New("persist: snapshot not found")
)

// Snapshot is the serialized form of one session. All state needed to
// serve warm explains is here; per-answer engines (computed lineage)
// are deliberately excluded — they rebuild on demand from the restored
// database and certificates.
type Snapshot struct {
	// ID is the session id ("d12"); it doubles as the file name.
	ID string
	// Values is the interning dictionary in code order: Values[c] is
	// the constant with code c.
	Values []string
	// Relations is the relation-name table referenced by Tuples.
	Relations []string
	// Tuples lists every tuple in TupleID (insertion) order.
	Tuples []Tuple
	// Queries are the prepared queries in preparation order.
	Queries []Query
	// NextQueryID continues the session's q%d id sequence.
	NextQueryID int
	// Certs are the hot dichotomy certificates, most recently used
	// first.
	Certs []Certificate
	// Idem are the session's mutation idempotency records, oldest
	// first. They ride the snapshot so a client retrying a mutation
	// whose response was lost to a handoff or restart is deduplicated by
	// the new owner too. Snapshots written before this field decode with
	// Idem nil — no records, never an error (gob tolerates the missing
	// field).
	Idem []Idempotency
	// Identity is drawn at random when the session is created and kept
	// by every snapshot, restore and handoff of it, so two sessions that
	// different nodes minted under the same id tell apart. Snapshots
	// written before this field decode with Identity 0: unknown.
	Identity uint64
	// Holder is the cluster node (its ring URL) that wrote the snapshot,
	// "" outside a cluster. A node that hands a session off removes its
	// own snapshot of it, but not one the new owner wrote into a store
	// the two share.
	Holder string
}

// Idempotency is one deduplicated mutation: the client-supplied
// Idempotency-Key and the JSON-encoded response the original apply
// produced, replayed verbatim to retries.
type Idempotency struct {
	Key      string
	Response []byte
}

// Tuple is one database row: a relation-table index, the endogenous
// flag, and the interned code of each argument. Deleted marks a tuple
// that was removed after insertion: the row is still recorded (its ID
// slot and any dictionary values it introduced must survive the
// replay) and Database re-deletes it after the adds, landing on the
// mutated state at the same version.
type Tuple struct {
	Rel     int32
	Endo    bool
	Deleted bool
	Args    []uint32
}

// Query is one prepared query: its stable id, canonical text, and the
// generated cause program (may be empty).
type Query struct {
	ID      string
	Text    string
	Program string
}

// Certificate is one hot entry of the session's certificate cache: the
// bound-shape key plus the sound and paper-faithful certificates.
type Certificate struct {
	Key   string
	Sound *rewrite.Certificate
	Paper *rewrite.Certificate
}

// SetDatabase captures db into the snapshot's dictionary, relation
// table, and tuple list. Tuples are recorded in TupleID order with
// their interned argument codes, so Database can replay them into a
// byte-identical columnar store.
func (snap *Snapshot) SetDatabase(db *rel.Database) {
	dict := db.Dict()
	snap.Values = make([]string, dict.Len())
	for c := range snap.Values {
		snap.Values[c] = string(dict.Value(uint32(c)))
	}
	relIdx := make(map[string]int32)
	snap.Relations = snap.Relations[:0]
	snap.Tuples = make([]Tuple, 0, db.NumTuples())
	for i := 0; i < db.NumTuples(); i++ {
		id := rel.TupleID(i)
		name := db.RelName(id)
		ri, ok := relIdx[name]
		if !ok {
			ri = int32(len(snap.Relations))
			relIdx[name] = ri
			snap.Relations = append(snap.Relations, name)
		}
		snap.Tuples = append(snap.Tuples, Tuple{Rel: ri, Endo: db.Endo(id), Deleted: !db.Live(id), Args: db.AppendCodes(nil, id)})
	}
}

// Database rebuilds the columnar database by replaying the recorded
// tuples in TupleID order, then re-deleting the ones marked Deleted.
// Because rel interns values in insertion order and deletions commute,
// the rebuilt dictionary, code vectors, ID space, and version are
// byte-identical to the snapshotted ones.
func (snap *Snapshot) Database() (*rel.Database, error) {
	db := rel.NewDatabase()
	for i, t := range snap.Tuples {
		if int(t.Rel) < 0 || int(t.Rel) >= len(snap.Relations) {
			return nil, fmt.Errorf("persist: tuple %d references relation %d of %d", i, t.Rel, len(snap.Relations))
		}
		args := make([]rel.Value, len(t.Args))
		for j, c := range t.Args {
			if int(c) >= len(snap.Values) {
				return nil, fmt.Errorf("persist: tuple %d references value code %d of %d", i, c, len(snap.Values))
			}
			args[j] = rel.Value(snap.Values[c])
		}
		if _, err := db.Add(snap.Relations[t.Rel], t.Endo, args...); err != nil {
			return nil, fmt.Errorf("persist: replaying tuple %d: %w", i, err)
		}
	}
	for i, t := range snap.Tuples {
		if t.Deleted {
			if err := db.Delete(rel.TupleID(i)); err != nil {
				return nil, fmt.Errorf("persist: replaying deletion of tuple %d: %w", i, err)
			}
		}
	}
	return db, nil
}

// Version is the database version the snapshot restores to: Database
// replays one add per recorded tuple and one delete per recorded
// deletion, and rel counts each as one mutation.
func (snap *Snapshot) Version() uint64 {
	v := uint64(len(snap.Tuples))
	for _, t := range snap.Tuples {
		if t.Deleted {
			v++
		}
	}
	return v
}

// Store reads and writes session snapshots under one directory.
type Store struct {
	dir string
}

// Open ensures dir exists and returns a store over it.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("persist: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: creating store dir: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store directory.
func (st *Store) Dir() string { return st.dir }

// Path returns the snapshot file path for a session id.
func (st *Store) Path(id string) string { return filepath.Join(st.dir, id+ext) }

// Save atomically writes the snapshot (temp file + rename).
func (st *Store) Save(snap *Snapshot) error {
	if snap.ID == "" || snap.ID != filepath.Base(snap.ID) || strings.HasPrefix(snap.ID, ".") {
		return fmt.Errorf("persist: invalid session id %q", snap.ID)
	}
	data, err := Encode(snap)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(st.dir, snap.ID+".tmp-*")
	if err != nil {
		return fmt.Errorf("persist: creating temp snapshot: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("persist: writing snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("persist: closing snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), st.Path(snap.ID)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("persist: publishing snapshot: %w", err)
	}
	return nil
}

// Load reads and verifies one session's snapshot. A missing file is
// ErrNotFound; corruption is ErrChecksum; a newer format is ErrVersion.
func (st *Store) Load(id string) (*Snapshot, error) {
	data, err := os.ReadFile(st.Path(id))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
		}
		return nil, fmt.Errorf("persist: reading snapshot %s: %w", id, err)
	}
	return Decode(data)
}

// Exists reports whether a snapshot is on disk for the session.
func (st *Store) Exists(id string) bool {
	_, err := os.Stat(st.Path(id))
	return err == nil
}

// Delete removes a session's snapshot; deleting a missing snapshot is
// not an error.
func (st *Store) Delete(id string) error {
	if err := os.Remove(st.Path(id)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("persist: deleting snapshot %s: %w", id, err)
	}
	return nil
}

// IDs lists the session ids with a snapshot on disk, sorted.
func (st *Store) IDs() ([]string, error) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, fmt.Errorf("persist: listing store dir: %w", err)
	}
	var ids []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ext) {
			continue
		}
		ids = append(ids, strings.TrimSuffix(name, ext))
	}
	sort.Strings(ids)
	return ids, nil
}

// LoadAll loads every snapshot in the store, skipping (and reporting)
// unreadable ones so one corrupt file cannot keep a server from
// starting with the rest of its sessions warm.
func (st *Store) LoadAll() (snaps []*Snapshot, errs []error) {
	ids, err := st.IDs()
	if err != nil {
		return nil, []error{err}
	}
	for _, id := range ids {
		snap, err := st.Load(id)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		snaps = append(snaps, snap)
	}
	return snaps, errs
}

// Encode serializes a snapshot into the framed on-disk format.
func Encode(snap *Snapshot) ([]byte, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(snap); err != nil {
		return nil, fmt.Errorf("persist: encoding snapshot: %w", err)
	}
	body := payload.Bytes()
	out := make([]byte, 0, headerLen+len(body)+4)
	out = append(out, magic...)
	out = append(out, Version)
	out = binary.BigEndian.AppendUint64(out, uint64(len(body)))
	out = append(out, body...)
	out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
	return out, nil
}

// Decode verifies the frame (magic, version, length, checksum) and
// decodes the payload.
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < headerLen+4 {
		return nil, fmt.Errorf("persist: snapshot truncated (%d bytes)", len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("persist: bad snapshot magic %q", data[:len(magic)])
	}
	if v := data[len(magic)]; v < minVersion || v > Version {
		return nil, fmt.Errorf("%w: %d (this binary reads %d..%d)", ErrVersion, v, minVersion, Version)
	}
	n := binary.BigEndian.Uint64(data[len(magic)+1 : headerLen])
	if uint64(len(data)) != uint64(headerLen)+n+4 {
		return nil, fmt.Errorf("persist: snapshot length mismatch: header says %d payload bytes, file has %d", n, len(data)-headerLen-4)
	}
	body := data[headerLen : headerLen+int(n)]
	want := binary.BigEndian.Uint32(data[headerLen+int(n):])
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("%w: computed %08x, stored %08x", ErrChecksum, got, want)
	}
	var snap Snapshot
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&snap); err != nil {
		return nil, fmt.Errorf("persist: decoding snapshot: %w", err)
	}
	return &snap, nil
}

// WriteBehind flushes dirty sessions to a Store in the background.
// Mark is O(1) on the request path; the actual snapshot closure runs at
// flush time, so many marks between flushes coalesce into one write of
// the latest state. A flush that fails (e.g. disk full) keeps the
// session dirty for the next round.
type WriteBehind struct {
	st *Store

	mu    sync.Mutex
	dirty map[string]func() (*Snapshot, error)

	writes  atomic.Uint64
	flushes atomic.Uint64

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// NewWriteBehind starts a flusher over st. interval <= 0 disables the
// background loop: marks accumulate until an explicit Flush (tests and
// drain paths use this to prove flush-on-drain does the work).
func NewWriteBehind(st *Store, interval time.Duration) *WriteBehind {
	wb := &WriteBehind{
		st:    st,
		dirty: make(map[string]func() (*Snapshot, error)),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	if interval > 0 {
		go wb.loop(interval)
	} else {
		close(wb.done)
	}
	return wb
}

func (wb *WriteBehind) loop(interval time.Duration) {
	defer close(wb.done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			_ = wb.Flush() // failed sessions stay dirty; retried next tick
		case <-wb.stop:
			return
		}
	}
}

// Mark flags a session dirty. snapshot is invoked at flush time and
// must be safe to call concurrently with request traffic.
func (wb *WriteBehind) Mark(id string, snapshot func() (*Snapshot, error)) {
	wb.mu.Lock()
	wb.dirty[id] = snapshot
	wb.mu.Unlock()
}

// Forget drops any pending mark for a session (it was deleted).
func (wb *WriteBehind) Forget(id string) {
	wb.mu.Lock()
	delete(wb.dirty, id)
	wb.mu.Unlock()
}

// Flush synchronously snapshots every dirty session. Sessions that
// fail to snapshot or save stay marked and their errors are joined into
// the return value; sessions marked while the flush runs are picked up
// by the next one.
func (wb *WriteBehind) Flush() error {
	wb.mu.Lock()
	batch := wb.dirty
	wb.dirty = make(map[string]func() (*Snapshot, error))
	wb.mu.Unlock()
	wb.flushes.Add(1)

	ids := make([]string, 0, len(batch))
	for id := range batch {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	var errs []error
	for _, id := range ids {
		snapshot := batch[id]
		snap, err := snapshot()
		if err == nil {
			err = wb.st.Save(snap)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("session %s: %w", id, err))
			wb.mu.Lock()
			if _, remarked := wb.dirty[id]; !remarked {
				wb.dirty[id] = snapshot
			}
			wb.mu.Unlock()
			continue
		}
		wb.writes.Add(1)
	}
	return errors.Join(errs...)
}

// Writes returns the number of snapshots written so far.
func (wb *WriteBehind) Writes() uint64 { return wb.writes.Load() }

// Pending returns the number of sessions currently marked dirty.
func (wb *WriteBehind) Pending() int {
	wb.mu.Lock()
	defer wb.mu.Unlock()
	return len(wb.dirty)
}

// Close stops the background loop and runs one final Flush.
func (wb *WriteBehind) Close() error {
	wb.stopOnce.Do(func() { close(wb.stop) })
	<-wb.done
	return wb.Flush()
}
