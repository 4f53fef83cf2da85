package serve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
)

// Snapshot format v2 (all integers little-endian):
//
//	magic    [8]byte  "F3MSNAP2"
//	version  u32      2
//	nmods    u32      module count
//	module*  str name, str canonicalIR
//	crc      u32      IEEE CRC-32 of everything above
//
// str = u32 length + raw bytes. Modules appear in submission order
// (the order of their first record ids); modules with no mergeable
// function follow, sorted by name. The file holds no derived data —
// no ids, signatures or store parameters — so a restore rebuilds the
// store from the modules alone, under the restoring server's own
// configuration, and replaying them in submission order reproduces the
// store's bucket order. The encoding is deterministic: repeated
// snapshots of a quiescent server are byte-identical, and so is a
// snapshot of the server a snapshot was restored into.

// snapshotMagic identifies a v2 snapshot file.
const snapshotMagic = "F3MSNAP2"

// snapshotVersion is the current format version.
const snapshotVersion = 2

// SnapshotInfo describes a written snapshot.
type SnapshotInfo struct {
	// Path is the file the snapshot was written to.
	Path string `json:"path"`

	// Bytes is the file size.
	Bytes int `json:"bytes"`

	// Modules and Funcs count the captured state; Epoch is the store
	// epoch at capture time.
	Modules int    `json:"modules"`
	Funcs   int    `json:"funcs"`
	Epoch   uint64 `json:"epoch"`
}

// RestoreInfo describes a completed restore.
type RestoreInfo struct {
	// Path is the snapshot file state was loaded from.
	Path string `json:"path"`

	// Modules and Funcs count the restored state.
	Modules int `json:"modules"`
	Funcs   int `json:"funcs"`
}

// snapEnc builds the deterministic byte stream.
type snapEnc struct{ buf bytes.Buffer }

func (e *snapEnc) u32(v uint32) { _ = binary.Write(&e.buf, binary.LittleEndian, v) }
func (e *snapEnc) str(s string) { e.u32(uint32(len(s))); e.buf.WriteString(s) }

// snapDec reads it back, tracking the first error.
type snapDec struct {
	data []byte
	off  int
	err  error
}

func (d *snapDec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("serve: corrupt snapshot: truncated %s at offset %d", what, d.off)
	}
}

func (d *snapDec) bytes(n int, what string) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.data) {
		d.fail(what)
		return nil
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b
}

func (d *snapDec) u32(what string) uint32 {
	b := d.bytes(4, what)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *snapDec) str(what string) string {
	n := d.u32(what + " length")
	return string(d.bytes(int(n), what))
}

// resolvePath applies the configured default snapshot path.
func (s *Server) resolvePath(path string) (string, error) {
	if path == "" {
		path = s.cfg.SnapshotPath
	}
	if path == "" {
		return "", fmt.Errorf("serve: no snapshot path (pass \"path\" or start with -snapshot)")
	}
	return path, nil
}

// Snapshot serializes every live module's name and canonical IR, in
// submission order, to path (empty path = the configured default),
// writing a temp file in the destination directory and renaming it
// into place so a crash mid-write never leaves a half-written snapshot
// behind.
func (s *Server) Snapshot(path string) (SnapshotInfo, error) {
	path, err := s.resolvePath(path)
	if err != nil {
		return SnapshotInfo{}, err
	}

	// Capture a consistent registry view. Entries and their records are
	// immutable after submission, so the read lock over the map copy is
	// the only synchronization needed.
	s.mu.RLock()
	epoch := s.Store().Epoch()
	entries := make([]*moduleEntry, 0, len(s.modules))
	for _, e := range s.modules { // lintmap:ignore collected then sorted by submission order below
		entries = append(entries, e)
	}
	s.mu.RUnlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].seq < entries[j].seq })

	var enc snapEnc
	enc.buf.WriteString(snapshotMagic)
	enc.u32(snapshotVersion)
	enc.u32(uint32(len(entries)))
	nfuncs := 0
	for _, e := range entries {
		enc.str(e.name)
		enc.str(e.src)
		nfuncs += len(e.recs)
	}
	enc.u32(crc32.ChecksumIEEE(enc.buf.Bytes()))

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".f3msnap-*")
	if err != nil {
		return SnapshotInfo{}, fmt.Errorf("serve: snapshot: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(enc.buf.Bytes()); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return SnapshotInfo{}, fmt.Errorf("serve: snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return SnapshotInfo{}, fmt.Errorf("serve: snapshot: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return SnapshotInfo{}, fmt.Errorf("serve: snapshot: %w", err)
	}

	s.mx.Counter("serve.snapshots").Inc()
	return SnapshotInfo{
		Path:    path,
		Bytes:   enc.buf.Len(),
		Modules: len(entries),
		Funcs:   nfuncs,
		Epoch:   epoch,
	}, nil
}

// Restore replaces the server's entire state — module registry and
// similarity store — with the contents of a snapshot file. The restore
// is all-or-nothing: the file is CRC-checked and decoded, and every
// module is replayed through SubmitModule's ingest steps (parse,
// verify, canonicalize, fingerprint under this server's StoreConfig)
// into a fresh registry and store before both are swapped in, so a
// corrupt or tampered file leaves the server untouched. No store
// parameters need to match the server that wrote the snapshot.
func (s *Server) Restore(path string) (RestoreInfo, error) {
	path, err := s.resolvePath(path)
	if err != nil {
		return RestoreInfo{}, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return RestoreInfo{}, fmt.Errorf("serve: restore: %w", err)
	}
	mods, err := decodeSnapshot(data)
	if err != nil {
		return RestoreInfo{}, err
	}

	fresh := NewStore(s.cfg.Store)
	modules := make(map[string]*moduleEntry, len(mods))
	nfuncs := 0
	for _, m := range mods {
		if _, dup := modules[m.name]; dup {
			return RestoreInfo{}, fmt.Errorf("serve: corrupt snapshot: duplicate module name %q", m.name)
		}
		in, err := ingest(fresh, m.name, m.src)
		if err != nil {
			return RestoreInfo{}, fmt.Errorf("serve: corrupt snapshot: module %q: %w", m.name, err)
		}
		modules[m.name] = in.index(fresh, uint64(len(modules)))
		nfuncs += len(in.funcs)
	}

	s.mu.Lock()
	s.modules = modules
	s.nextSeq = uint64(len(modules))
	s.store.Store(fresh)
	s.mu.Unlock()

	s.mx.Counter("serve.restores").Inc()
	s.mx.Gauge("serve.modules").Set(float64(len(modules)))
	s.publishFuncGauge()
	return RestoreInfo{Path: path, Modules: len(modules), Funcs: nfuncs}, nil
}

// snapModule is one decoded (name, canonical IR) pair.
type snapModule struct{ name, src string }

// decodeSnapshot checks the magic, version and CRC of snapshot bytes
// and returns the modules in file order.
func decodeSnapshot(data []byte) ([]snapModule, error) {
	if len(data) < len(snapshotMagic)+8 {
		return nil, fmt.Errorf("serve: corrupt snapshot: too short (%d bytes)", len(data))
	}
	if magic := string(data[:len(snapshotMagic)]); magic != snapshotMagic {
		return nil, fmt.Errorf("serve: unsupported snapshot format %q (this server reads %q)", magic, snapshotMagic)
	}
	body, footer := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(footer); got != want {
		return nil, fmt.Errorf("serve: corrupt snapshot: CRC mismatch (file %08x, computed %08x)", want, got)
	}

	d := &snapDec{data: body, off: len(snapshotMagic)}
	if v := d.u32("version"); d.err == nil && v != snapshotVersion {
		return nil, fmt.Errorf("serve: unsupported snapshot version %d (want %d)", v, snapshotVersion)
	}
	nmods := int(d.u32("module count"))
	var mods []snapModule
	for i := 0; i < nmods && d.err == nil; i++ {
		mods = append(mods, snapModule{name: d.str("module name"), src: d.str("module IR")})
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(body) {
		return nil, fmt.Errorf("serve: corrupt snapshot: %d trailing bytes", len(body)-d.off)
	}
	return mods, nil
}
