package fleet

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"

	"treelattice/internal/core"
)

// ErrUnknownTenant reports a tenant name with no snapshot under the
// fleet root.
var ErrUnknownTenant = errors.New("fleet: unknown tenant")

// RegistryOptions configures a tenant registry.
type RegistryOptions struct {
	// Root is the directory holding one subdirectory per tenant (see
	// LoadTenant for the layout). Empty means no tenant resolves.
	Root string
	// MaxResident bounds how many tenants stay resident at once
	// (default 8). Evicting a tenant drops the registry's reference;
	// summaries are immutable, so estimates already holding one are
	// unaffected.
	MaxResident int
	// MaxResidentBytes additionally bounds the summed ResidentBytes of
	// resident tenants (0 = no byte budget). When a load pushes the
	// total past the budget, least-recently-used tenants are evicted
	// until it fits — except the newest load itself, which always stays:
	// a single tenant larger than the budget still serves, it just
	// evicts everything else.
	MaxResidentBytes int64
	// Logf receives load/evict log lines; nil means no logging.
	Logf func(format string, args ...any)
}

// Registry resolves tenant names to resident tenant summaries, loading
// snapshots lazily and keeping an LRU of resident tenants. Loads are
// single-flight: concurrent Acquires of a cold tenant share one load.
type Registry struct {
	opts RegistryOptions

	mu       sync.Mutex
	resident map[string]*slot
	lru      *list.List // loaded slots, front = most recent
	gens     map[string]uint64

	loads      int64 // loads that joined the LRU; failed ones do not count
	evictions  int64
	reloads    int64
	totalBytes int64 // summed bytes of lru-listed (loaded) slots
}

// slot tracks one tenant through loading and residence. ready closes
// when the load completes; elem is the slot's LRU position (nil while
// loading); bytes is the tenant's resident footprint, recorded at load
// so eviction accounting needs no re-measuring.
type slot struct {
	name  string
	ready chan struct{}
	sum   *core.Summary
	err   error
	elem  *list.Element
	bytes int64
}

// NewRegistry returns an empty registry over opts.Root.
func NewRegistry(opts RegistryOptions) *Registry {
	if opts.MaxResident <= 0 {
		opts.MaxResident = 8
	}
	return &Registry{
		opts:     opts,
		resident: make(map[string]*slot),
		lru:      list.New(),
		gens:     make(map[string]uint64),
	}
}

// Acquire resolves name to its resident summary, loading the tenant's
// snapshot on first use. The returned summary stays valid for the
// caller's whole request even if the registry evicts it concurrently
// (summaries are immutable; eviction only drops the registry's
// reference). Unknown names fail with ErrUnknownTenant, invalid ones
// with ErrBadName.
func (r *Registry) Acquire(ctx context.Context, name string) (*core.Summary, error) {
	if err := ValidateName(name); err != nil {
		return nil, err
	}
	r.mu.Lock()
	if s, ok := r.resident[name]; ok {
		if s.elem != nil {
			r.lru.MoveToFront(s.elem)
		}
		r.mu.Unlock()
		select {
		case <-s.ready:
			return s.sum, s.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if r.opts.Root == "" {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, name)
	}
	s := &slot{name: name, ready: make(chan struct{})}
	r.resident[name] = s
	r.mu.Unlock()

	sum, err := LoadTenant(r.tenantDir(name), name)
	r.mu.Lock()
	s.sum, s.err = sum, err
	switch {
	case r.resident[name] != s:
		// A concurrent Reload swapped in a fresh slot while this load
		// ran; that slot serves and owns the LRU entry. Identity-checked
		// so it is never deleted or double-counted by mistake.
	case err != nil:
		// Failed loads do not stay resident: the next Acquire retries
		// (the tenant may appear on disk later).
		delete(r.resident, name)
	default:
		s.bytes = int64(sum.ResidentBytes())
		r.totalBytes += s.bytes
		s.elem = r.lru.PushFront(s)
		r.gens[name]++
		r.loads++
		r.evictLocked()
		r.logf("fleet: loaded tenant %q (%s backend, %d resident bytes)",
			name, sum.StoreKind(), s.bytes)
	}
	r.mu.Unlock()
	close(s.ready)
	return sum, err
}

// Reload replaces name's resident tenant with a fresh load of its
// on-disk snapshot — the fleet half of zero-downtime ingest: a replica
// refreezes and publishes a new snapshot file, and the serving fleet
// picks it up without evicting the serving copy. The load runs
// outside the registry lock; the swap is a map-entry replacement, so
// requests already holding the old summary finish against it
// (summaries are immutable) while new Acquires see the fresh one. The
// tenant's generation counter advances on success.
func (r *Registry) Reload(ctx context.Context, name string) (*core.Summary, error) {
	if err := ValidateName(name); err != nil {
		return nil, err
	}
	if r.opts.Root == "" {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, name)
	}
	for {
		r.mu.Lock()
		s, ok := r.resident[name]
		r.mu.Unlock()
		if !ok {
			break
		}
		// An in-flight load settles its own bookkeeping on this slot;
		// wait it out rather than racing the swap.
		select {
		case <-s.ready:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		r.mu.Lock()
		same := r.resident[name] == s
		r.mu.Unlock()
		if same {
			break // load settled and the slot is still serving
		}
	}

	sum, err := LoadTenant(r.tenantDir(name), name)
	if err != nil {
		return nil, err
	}
	ready := make(chan struct{})
	close(ready)
	s := &slot{name: name, ready: ready, sum: sum, bytes: int64(sum.ResidentBytes())}
	r.mu.Lock()
	if old, ok := r.resident[name]; ok && old.elem != nil {
		r.lru.Remove(old.elem)
		r.totalBytes -= old.bytes
	}
	r.resident[name] = s
	r.totalBytes += s.bytes
	s.elem = r.lru.PushFront(s)
	r.gens[name]++
	r.reloads++
	r.evictLocked()
	r.logf("fleet: reloaded tenant %q (generation %d, %s backend, %d resident bytes)",
		name, r.gens[name], sum.StoreKind(), s.bytes)
	r.mu.Unlock()
	return sum, nil
}

// Generation reports how many times name has been loaded or reloaded —
// the operator's way to confirm a reload took effect, and what a fleet
// tenant reports as its epoch in /v1/t/{tenant}/stats. Zero means never
// loaded. Generations survive eviction: a tenant that ages out and
// loads again continues its count.
func (r *Registry) Generation(name string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gens[name]
}

func (r *Registry) tenantDir(name string) string {
	return filepath.Join(r.opts.Root, name)
}

// evictLocked drops least-recently-used tenants while the
// count exceeds MaxResident or the summed resident bytes exceed
// MaxResidentBytes — but never the sole remaining one, so an oversized
// tenant still serves. Caller holds r.mu.
func (r *Registry) evictLocked() {
	overBudget := func() bool {
		return r.opts.MaxResidentBytes > 0 && r.totalBytes > r.opts.MaxResidentBytes
	}
	for r.lru.Len() > r.opts.MaxResident || (overBudget() && r.lru.Len() > 1) {
		e := r.lru.Back()
		s := e.Value.(*slot)
		r.lru.Remove(e)
		delete(r.resident, s.name)
		r.totalBytes -= s.bytes
		r.evictions++
		r.logf("fleet: evicted tenant %q (%d resident bytes)", s.name, s.bytes)
	}
}

func (r *Registry) logf(format string, args ...any) {
	if r.opts.Logf != nil {
		r.opts.Logf(format, args...)
	}
}

// Peek returns a resident, fully loaded tenant's summary without
// triggering a load or touching LRU order — the observability path's
// read.
func (r *Registry) Peek(name string) (*core.Summary, bool) {
	r.mu.Lock()
	s, ok := r.resident[name]
	r.mu.Unlock()
	if !ok {
		return nil, false
	}
	select {
	case <-s.ready:
		return s.sum, s.err == nil
	default:
		return nil, false
	}
}

// Resident lists the resident tenant names, sorted.
func (r *Registry) Resident() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.resident))
	for name := range r.resident {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// RegistryStats is the registry's /v1/stats section. ResidentBytes
// sums the footprint of every loaded tenant; MaxResidentBytes echoes
// the configured budget (0 = unlimited).
type RegistryStats struct {
	Resident         int   `json:"resident"`
	Loads            int64 `json:"loads"`
	Evictions        int64 `json:"evictions"`
	Reloads          int64 `json:"reloads"`
	ResidentBytes    int64 `json:"resident_bytes"`
	MaxResidentBytes int64 `json:"max_resident_bytes,omitempty"`
}

// Stats snapshots residence and churn counters.
func (r *Registry) Stats() RegistryStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return RegistryStats{
		Resident: len(r.resident), Loads: r.loads, Evictions: r.evictions,
		Reloads: r.reloads, ResidentBytes: r.totalBytes,
		MaxResidentBytes: r.opts.MaxResidentBytes,
	}
}
