// Package fleet serves many corpora from one process: a registry of
// named tenants, each one read-only snapshot (<root>/<tenant>/summary.tlat)
// loaded lazily, kept in an LRU bounded by tenant count and resident
// bytes, and hot-swapped in place by Reload.
package fleet

import (
	"errors"
	"fmt"
	"strings"
)

// MaxNameLen bounds tenant names. Names become directory components on
// disk and label values in metrics; 64 bytes is generous for both.
const MaxNameLen = 64

// ErrBadName reports a tenant name that fails validation.
var ErrBadName = errors.New("fleet: invalid name")

// ValidateName enforces the strict tenant name grammar: 1 to MaxNameLen
// bytes of lowercase ASCII letters, digits, '.', '_' and '-', beginning
// and ending with a letter or digit, and never containing "..". Names
// are used as path components under the fleet root and as metric label
// values, so the grammar rejects anything that could traverse
// directories ("..", "/", "\"), hide in logs (controls, non-ASCII), or
// collide case-insensitively (uppercase).
func ValidateName(name string) error {
	if name == "" {
		return fmt.Errorf("%w: empty", ErrBadName)
	}
	if len(name) > MaxNameLen {
		return fmt.Errorf("%w: %d bytes exceeds %d", ErrBadName, len(name), MaxNameLen)
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
			if i == 0 || i == len(name)-1 {
				return fmt.Errorf("%w: %q must start and end with a letter or digit", ErrBadName, name)
			}
		default:
			return fmt.Errorf("%w: %q contains byte %q", ErrBadName, name, c)
		}
	}
	if strings.Contains(name, "..") {
		return fmt.Errorf("%w: %q contains %q", ErrBadName, name, "..")
	}
	return nil
}
