package em

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
	"sync/atomic"

	"maxrs/internal/codec"
)

// This file implements the compressed slot store (DESIGN.md §15): a
// backend that persists each logical block as a fixed-size *slot* of
// slotHeaderSize + blockSize bytes — a self-describing header followed
// by the block's physical payload, which a per-block codec may have
// shrunk below the fixed layout. Slots are fixed so block addressing
// stays O(1) (offset = id·slotSize) while payloads vary; the raw codec
// (id 0) always fits, so compression can only save bytes, never spill.
//
// The store sits strictly below the Disk's transfer counters: one
// logical ReadBlock/WriteBlock is one counted transfer whatever the
// payload size, so the counted schedule is bit-identical to the
// in-memory backend by construction. What the store changes is the
// physical bytes each transfer moves, tallied in PhysIO. With no codec
// family every block is stored raw; over a temp file that is the disk
// NewFileBackedDisk builds.

// slotHeaderSize is the fixed per-slot header:
//
//	[0]     codec id (codec.RawID = uncompressed payload)
//	[1:4]   reserved (zero)
//	[4:8]   payload length, uint32 LE
//	[8:12]  uncompressed (logical) length, uint32 LE — the written
//	        prefix; the block's remainder is implied zeros
//	[12:16] CRC32C of the uncompressed prefix, uint32 LE
const slotHeaderSize = 16

// slotStore is flat byte storage for slots. Offsets are managed by
// storeBackend; implementations only move bytes.
//
// Concurrency contract (inherited from backend): grow runs with the
// Disk's write lock held — exclusively of readAt/writeAt, which run
// under its read lock and may be concurrent with each other on disjoint
// ranges.
type slotStore interface {
	readAt(dst []byte, off int64) error
	writeAt(src []byte, off int64) error
	// grow ensures the store can hold size bytes.
	grow(size int64) error
	Close() error
}

// fileSlots stores slots in an OS file via positioned I/O — the
// portable store, and the fallback when mmap is unavailable.
type fileSlots struct {
	f *os.File
}

func newFileSlots(dir string) (*fileSlots, error) {
	f, err := os.CreateTemp(dir, "maxrs-store-*.dat")
	if err != nil {
		return nil, fmt.Errorf("em: store file: %w", err)
	}
	return &fileSlots{f: f}, nil
}

func (s *fileSlots) readAt(dst []byte, off int64) error {
	_, err := s.f.ReadAt(dst, off)
	return err
}

func (s *fileSlots) writeAt(src []byte, off int64) error {
	_, err := s.f.WriteAt(src, off)
	return err
}

// grow is a no-op: WriteAt extends the file on demand and only written
// ranges are ever read back.
func (s *fileSlots) grow(int64) error { return nil }

func (s *fileSlots) Close() error {
	name := s.f.Name()
	return errors.Join(s.f.Close(), os.Remove(name))
}

// memSlots stores slots in process memory — the hermetic store for
// codec tests that must not touch the filesystem.
type memSlots struct {
	data []byte
}

func (s *memSlots) readAt(dst []byte, off int64) error {
	copy(dst, s.data[off:])
	return nil
}

func (s *memSlots) writeAt(src []byte, off int64) error {
	copy(s.data[off:], src)
	return nil
}

func (s *memSlots) grow(size int64) error {
	for int64(len(s.data)) < size {
		s.data = append(s.data, make([]byte, size-int64(len(s.data)))...)
	}
	return nil
}

func (s *memSlots) Close() error {
	s.data = nil
	return nil
}

// StoreKind selects the physical store under a slot-store disk.
type StoreKind int

const (
	// StoreFile keeps slots in a temp file via positioned I/O.
	StoreFile StoreKind = iota
	// StoreMmap keeps slots in a memory-mapped temp file: page-cache
	// reads, batched write-behind submission. Falls back to StoreFile
	// when the platform or filesystem cannot map.
	StoreMmap
	// StoreMem keeps slots in process memory (hermetic tests).
	StoreMem
)

// storeBackend implements backend over a slotStore plus a codec
// candidate family. An empty family stores every block raw — the store
// format without compression (how the mmap backend runs codec-less).
type storeBackend struct {
	blockSize int
	slotSize  int64
	store     slotStore
	name      string // actual store in use: "file", "mmap", "mem"
	cands     []codec.BlockCodec

	// sizes caches each block's slot payload length + 1; 0 means the
	// block was never written since its last grow, so reads zero-fill
	// without physical I/O (memBackend gets the same observable
	// semantics by zeroing storage in grow). Guarded by the
	// Disk's locks exactly like memBackend.blocks: grown under the write
	// lock, element-wise accessed under the read lock with single-owner
	// block semantics.
	sizes []uint32

	encoders sync.Pool // of *codec.Encoder
	bufs     sync.Pool // of []byte, slot-sized

	physReads  atomic.Uint64 // physical bytes moved store → memory
	physWrites atomic.Uint64 // physical bytes moved memory → store
	compressed atomic.Uint64 // block writes that beat the raw layout
	rawBlocks  atomic.Uint64 // block writes stored in the fixed layout
}

func newStoreBackend(store slotStore, name string, blockSize int, cands []codec.BlockCodec) *storeBackend {
	sb := &storeBackend{
		blockSize: blockSize,
		slotSize:  int64(slotHeaderSize + blockSize),
		store:     store,
		name:      name,
		cands:     cands,
	}
	sb.encoders.New = func() any { return codec.NewEncoder(sb.cands) }
	sb.bufs.New = func() any { return make([]byte, sb.slotSize) }
	return sb
}

func (sb *storeBackend) grow(id BlockID) error {
	for int(id) >= len(sb.sizes) {
		sb.sizes = append(sb.sizes, 0)
	}
	sb.sizes[id] = 0 // fresh or recycled: reads zero-fill, no I/O
	return sb.store.grow((int64(id) + 1) * sb.slotSize)
}

// free drops a released block's payload mapping so a stale slot can
// never be read after reallocation (grow re-zeroes it anyway; this
// keeps the invariant even between Free and the next Alloc).
func (sb *storeBackend) free(id BlockID) {
	if int(id) < len(sb.sizes) {
		sb.sizes[id] = 0
	}
}

func (sb *storeBackend) write(id BlockID, src []byte) error {
	enc := sb.encoders.Get().(*codec.Encoder)
	cid, payload := enc.Encode(src)
	buf := sb.bufs.Get().([]byte)
	buf = buf[:slotHeaderSize+len(payload)]
	buf[0] = cid
	buf[1], buf[2], buf[3] = 0, 0, 0
	putU32(buf[4:], uint32(len(payload)))
	putU32(buf[8:], uint32(len(src)))
	putU32(buf[12:], crc32.Checksum(src, castagnoli))
	copy(buf[slotHeaderSize:], payload)
	err := sb.store.writeAt(buf, int64(id)*sb.slotSize)
	sb.bufs.Put(buf[:cap(buf)])
	sb.encoders.Put(enc)
	if err != nil {
		return err
	}
	sb.sizes[id] = uint32(len(payload)) + 1
	sb.physWrites.Add(uint64(slotHeaderSize + len(payload)))
	if cid == codec.RawID {
		sb.rawBlocks.Add(1)
	} else {
		sb.compressed.Add(1)
	}
	return nil
}

func (sb *storeBackend) read(id BlockID, dst []byte) error {
	dst = dst[:sb.blockSize]
	sz := sb.sizes[id]
	if sz == 0 {
		clear(dst)
		return nil
	}
	n := int(sz - 1)
	buf := sb.bufs.Get().([]byte)
	defer sb.bufs.Put(buf)
	buf = buf[:slotHeaderSize+n]
	if err := sb.store.readAt(buf, int64(id)*sb.slotSize); err != nil {
		return err
	}
	sb.physReads.Add(uint64(len(buf)))
	cid := buf[0]
	payloadLen := int(getU32(buf[4:]))
	uncomp := int(getU32(buf[8:]))
	sum := getU32(buf[12:])
	if payloadLen != n || uncomp > sb.blockSize {
		return fmt.Errorf("%w: block %d slot header inconsistent (payload %d/%d, logical %d/%d)",
			ErrBlockCorrupt, id, payloadLen, n, uncomp, sb.blockSize)
	}
	payload := buf[slotHeaderSize:]
	if cid == codec.RawID {
		if uncomp != payloadLen {
			return fmt.Errorf("%w: block %d raw payload %d bytes, logical %d",
				ErrBlockCorrupt, id, payloadLen, uncomp)
		}
		copy(dst, payload)
	} else {
		c := codec.Lookup(cid)
		if c == nil {
			return fmt.Errorf("%w: block %d references unknown codec %d", ErrBlockCorrupt, id, cid)
		}
		if err := c.Decode(dst[:uncomp], payload); err != nil {
			return fmt.Errorf("%w: block %d: %v", ErrBlockCorrupt, id, err)
		}
	}
	clear(dst[uncomp:])
	if got := crc32.Checksum(dst[:uncomp], castagnoli); got != sum {
		return fmt.Errorf("%w: block %d store checksum mismatch (stored %08x, decoded %08x)",
			ErrBlockCorrupt, id, sum, got)
	}
	return nil
}

func (sb *storeBackend) Close() error { return sb.store.Close() }

// phys snapshots the physical-byte counters.
func (sb *storeBackend) phys() PhysIO {
	return PhysIO{
		ReadBytes:        sb.physReads.Load(),
		WriteBytes:       sb.physWrites.Load(),
		BlocksCompressed: sb.compressed.Load(),
		BlocksRaw:        sb.rawBlocks.Load(),
		Measured:         true,
	}
}

func (sb *storeBackend) resetPhys() {
	sb.physReads.Store(0)
	sb.physWrites.Store(0)
	sb.compressed.Store(0)
	sb.rawBlocks.Store(0)
}

func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// PhysIO counts the physical bytes moved below the transfer counters
// (DESIGN.md §15). For a slot-store disk the counters are measured:
// header + payload per transfer, with per-block compression outcomes.
// For the in-memory disk they are derived as transfers × block size and
// Measured is false.
type PhysIO struct {
	ReadBytes        uint64 // physical bytes moved storage → memory
	WriteBytes       uint64 // physical bytes moved memory → storage
	BlocksCompressed uint64 // block writes that beat the raw layout
	BlocksRaw        uint64 // block writes stored in the fixed layout
	Measured         bool   // true when a slot store counted; false = transfers × B
}

// Bytes returns ReadBytes + WriteBytes.
func (p PhysIO) Bytes() uint64 { return p.ReadBytes + p.WriteBytes }

// StorageInfo describes the physical storage stack under a Disk's
// transfer counters — which store actually serves blocks (after any
// mmap fallback) and whether a codec family is armed.
type StorageInfo struct {
	Backend string // "mem", "store/file", "store/mmap", "store/mem"
	Codec   string // "none" or "delta"
}

// NewStoreDisk returns a Disk whose blocks live in a compressed slot
// store (DESIGN.md §15): kind selects the physical store — StoreMmap
// falls back to a plain temp file when mapping is unavailable — and
// cands is the codec candidate family tried per block (nil stores every
// block in the fixed layout). dir is the directory for the backing file
// ("" = the OS temp directory; ignored by StoreMem).
//
// Transfer counts are bit-identical to NewDisk by construction: the
// store sits below the counters, so the store kind and codecs change
// only the physical bytes per transfer (PhysIO), never the counted
// schedule.
func NewStoreDisk(dir string, blockSize int, kind StoreKind, cands []codec.BlockCodec) (*Disk, error) {
	if blockSize <= 0 {
		return nil, ErrBlockSize
	}
	var (
		store slotStore
		name  string
		err   error
	)
	switch kind {
	case StoreMem:
		store, name = &memSlots{}, "mem"
	case StoreMmap:
		store, err = newMmapSlots(dir)
		name = "mmap"
		if err != nil {
			// Graceful fallback: mapping can fail per-platform or
			// per-filesystem; the portable store is always available.
			store, err = newFileSlots(dir)
			name = "file"
		}
	default:
		store, err = newFileSlots(dir)
		name = "file"
	}
	if err != nil {
		return nil, err
	}
	return &Disk{
		blockSize: blockSize,
		backend:   newStoreBackend(store, name, blockSize, cands),
	}, nil
}

// NewFileBackedDisk returns a Disk whose blocks live in a temporary file
// under dir ("" = the OS temp directory): the raw slot store,
// NewStoreDisk(dir, blockSize, StoreFile, nil). The transfer counters
// behave identically to the in-memory disk; only the storage medium
// differs. Call Close when done to remove the backing file.
func NewFileBackedDisk(dir string, blockSize int) (*Disk, error) {
	return NewStoreDisk(dir, blockSize, StoreFile, nil)
}

// storeOf unwraps the disk's backend chain (fault injector included) to
// the slot store, if one is installed.
func (d *Disk) storeOf() *storeBackend {
	d.mu.RLock()
	b := d.backend
	d.mu.RUnlock()
	if fb, ok := b.(*faultBackend); ok {
		b = fb.inner
	}
	sb, _ := b.(*storeBackend)
	return sb
}

// PhysIO returns the physical-byte counters accumulated since the last
// ResetStats. Slot-store disks measure them exactly (fault injection
// composes: injected faults sit above the store, so the counters still
// reflect real store traffic); the in-memory disk derives them as
// transfers × block size with Measured false.
func (d *Disk) PhysIO() PhysIO {
	if sb := d.storeOf(); sb != nil {
		return sb.phys()
	}
	s := d.Stats()
	b := uint64(d.blockSize)
	return PhysIO{ReadBytes: s.Reads * b, WriteBytes: s.Writes * b}
}

// StorageInfo reports which physical store serves this disk's blocks
// (after any mmap fallback) and whether a codec family is armed.
func (d *Disk) StorageInfo() StorageInfo {
	sb := d.storeOf()
	if sb == nil {
		return StorageInfo{Backend: "mem", Codec: "none"}
	}
	info := StorageInfo{Backend: "store/" + sb.name, Codec: "none"}
	if len(sb.cands) > 0 {
		info.Codec = "delta"
	}
	return info
}
