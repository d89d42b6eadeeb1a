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
// Since version 3 the snapshot holds the database as its columns
// (Snapshot.Columns, a rel.Columns): the dictionary in code order, each
// relation's code vectors with its ascending tuple IDs, the endo flags
// and the husks of deleted tuples. Versions 1 and 2 held one record per
// tuple; Decode turns that list into the same columns, so every version
// restores through one bulk load (rel.Load), which rejects columns rel
// could not have built. The same envelope is the Go client's upload
// body and the cluster's handoff body.
//
// # Determinism
//
// The columns are what rel stores, and rel.Load installs them as they
// are: the restored database has the same dictionary, code vectors,
// tuple IDs, husks and version as the snapshotted one, so lineage,
// cached certificates, and responsibility rankings carry over exactly
// (persist_test asserts this column by column). The columns hold no
// maps, so within one process the same database always encodes to the
// same bytes (gob numbers types per process, so not across processes).
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
// (mutable sessions); version 3 replaced the per-tuple records with the
// database's columns. This binary still reads v1 and v2 snapshots.
const (
	Version    = 3
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
	// Columns is the database (see rel.Database.Columns).
	Columns rel.Columns
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

// tuple is one row of a version 1 or 2 snapshot: a relation-table
// index, the endogenous flag, and the interned code of each argument.
// Deleted (version 2) marks a tuple that was removed after insertion.
type tuple struct {
	Rel     int32
	Endo    bool
	Deleted bool
	Args    []uint32
}

// tables is the database of a version 1 or 2 snapshot: the dictionary
// in code order, the relation-name table, and every tuple in TupleID
// order.
type tables struct {
	Values    []string
	Relations []string
	Tuples    []tuple
}

// columns turns the per-tuple list into the columns rel.Load installs.
// It checks only what it needs to build them; Load checks the rest.
func (t *tables) columns() (rel.Columns, error) {
	c := rel.Columns{Values: make([]rel.Value, len(t.Values)), Endo: make([]bool, len(t.Tuples))}
	for i, v := range t.Values {
		c.Values[i] = rel.Value(v)
	}
	byName := make(map[string]int)
	for i, tp := range t.Tuples {
		if int(tp.Rel) < 0 || int(tp.Rel) >= len(t.Relations) {
			return rel.Columns{}, fmt.Errorf("persist: tuple %d references relation %d of %d", i, tp.Rel, len(t.Relations))
		}
		name := t.Relations[tp.Rel]
		k, ok := byName[name]
		if !ok {
			k = len(c.Relations)
			byName[name] = k
			c.Relations = append(c.Relations, rel.RelColumns{Name: name, Arity: len(tp.Args), Cols: make([][]uint32, len(tp.Args))})
		}
		rc := &c.Relations[k]
		if len(tp.Args) != rc.Arity {
			return rel.Columns{}, fmt.Errorf("persist: tuple %d has %d arguments; relation %s has arity %d", i, len(tp.Args), name, rc.Arity)
		}
		c.Endo[i] = tp.Endo
		if tp.Deleted {
			c.Husks = append(c.Husks, rel.Husk{ID: rel.TupleID(i), Rel: name, Codes: tp.Args})
			continue
		}
		rc.IDs = append(rc.IDs, rel.TupleID(i))
		for j, code := range tp.Args {
			rc.Cols[j] = append(rc.Cols[j], code)
		}
	}
	sort.Slice(c.Relations, func(i, j int) bool { return c.Relations[i].Name < c.Relations[j].Name })
	return c, nil
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

// SetDatabase captures a copy of db's columns.
func (snap *Snapshot) SetDatabase(db *rel.Database) { snap.Columns = db.Columns() }

// Database bulk-loads the snapshot's columns into a new database, equal
// to the snapshotted one in dictionary, code vectors, tuple IDs, husks
// and version. The database takes the columns over, so call it once.
func (snap *Snapshot) Database() (*rel.Database, error) {
	db, err := rel.Load(snap.Columns)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	return db, nil
}

// Version is the database version the snapshot restores to: one add per
// tuple ID and one delete per husk. It is meaningful only for columns
// that Database accepts.
func (snap *Snapshot) Version() uint64 {
	return uint64(len(snap.Columns.Endo) + len(snap.Columns.Husks))
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
	return frame(Version, payload.Bytes()), nil
}

// frame wraps a payload in the file format's header and checksum.
func frame(version byte, body []byte) []byte {
	out := make([]byte, 0, headerLen+len(body)+4)
	out = append(out, magic...)
	out = append(out, version)
	out = binary.BigEndian.AppendUint64(out, uint64(len(body)))
	out = append(out, body...)
	return binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
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
	if data[len(magic)] < 3 {
		// gob matches fields by name: the Snapshot decode above skipped
		// the per-tuple tables, and this one skips everything else.
		var t tables
		if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&t); err != nil {
			return nil, fmt.Errorf("persist: decoding snapshot: %w", err)
		}
		c, err := t.columns()
		if err != nil {
			return nil, err
		}
		snap.Columns = c
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
