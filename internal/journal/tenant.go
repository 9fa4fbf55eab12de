package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Per-tenant journal layout. A multi-tenant control plane keeps one
// journal directory per admitted experiment, two levels under a root,
// holding the run's one journal file:
//
//	root/<tenant>/<run>/journal-000000.seg
//
// Tenant and run names are restricted to a filesystem-safe alphabet so a
// submitted tenant string can never traverse outside the root or collide
// with another tenant's directory.

// maxNameLen bounds tenant and run directory names.
const maxNameLen = 64

// ValidName reports whether s is a legal tenant or run directory name:
// 1–64 characters of lowercase letters, digits and dashes, not starting
// or ending with a dash.
func ValidName(s string) bool {
	if len(s) == 0 || len(s) > maxNameLen {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z' || c >= '0' && c <= '9':
		case c == '-' && i > 0 && i < len(s)-1:
		default:
			return false
		}
	}
	return true
}

// RunDir creates (if needed) and returns the journal directory for one
// tenant's run under root. Both names are validated, never joined raw.
func RunDir(root, tenant, run string) (string, error) {
	if !ValidName(tenant) {
		return "", fmt.Errorf("journal: invalid tenant name %q", tenant)
	}
	if !ValidName(run) {
		return "", fmt.Errorf("journal: invalid run name %q", run)
	}
	dir := filepath.Join(root, tenant, run)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("journal: run dir: %w", err)
	}
	return dir, nil
}

// RunRef locates one per-tenant run directory found under a journal root.
type RunRef struct {
	Tenant string
	Run    string
	Dir    string
}

// ListRuns scans a journal root for per-tenant run directories, in
// sorted (tenant, run) order so restart recovery visits runs
// deterministically. Entries that do not parse as valid names are
// skipped: the root may hold unrelated operator files.
func ListRuns(root string) ([]RunRef, error) {
	tenants, err := os.ReadDir(root)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("journal: list runs: %w", err)
	}
	var out []RunRef
	for _, td := range tenants {
		if !td.IsDir() || !ValidName(td.Name()) {
			continue
		}
		runs, err := os.ReadDir(filepath.Join(root, td.Name()))
		if err != nil {
			return nil, fmt.Errorf("journal: list runs for %s: %w", td.Name(), err)
		}
		for _, rd := range runs {
			if !rd.IsDir() || !ValidName(rd.Name()) {
				continue
			}
			out = append(out, RunRef{
				Tenant: td.Name(),
				Run:    rd.Name(),
				Dir:    filepath.Join(root, td.Name(), rd.Name()),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Tenant != out[j].Tenant {
			return out[i].Tenant < out[j].Tenant
		}
		return out[i].Run < out[j].Run
	})
	return out, nil
}
