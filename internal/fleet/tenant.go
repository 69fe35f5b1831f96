package fleet

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"

	"treelattice/internal/core"
	"treelattice/internal/labeltree"
)

// SummaryFile is a tenant's snapshot file. A corpus keeps its frozen
// summary under the same name, so copying a corpus's summary.tlat to
// <root>/<tenant>/summary.tlat publishes that corpus as the tenant.
const SummaryFile = "summary.tlat"

// LoadTenant loads a tenant's read-only snapshot, <dir>/summary.tlat,
// through core.OpenSnapshotFile, which detects the format by magic:
// frozen for TLAT files, compressed (memory-mapped where supported) for
// TLCZ files. Every tenant interns its labels into a dictionary of its
// own.
func LoadTenant(dir, name string) (*core.Summary, error) {
	if err := ValidateName(name); err != nil {
		return nil, err
	}
	sum, err := core.OpenSnapshotFile(filepath.Join(dir, SummaryFile), labeltree.NewDict())
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w: %q has no %s", ErrUnknownTenant, name, SummaryFile)
	}
	if err != nil {
		return nil, fmt.Errorf("fleet: tenant %q: %w", name, err)
	}
	return sum, nil
}
