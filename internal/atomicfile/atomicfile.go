// Package atomicfile writes files atomically via a same-directory temp
// file and rename, so concurrent readers only ever observe complete
// files. The sweep and serve JSON artifacts are written this way, so an
// interrupted run never leaves a torn artifact behind.
package atomicfile

import (
	"os"
	"path/filepath"
)

// Write writes data to path through a temp file in path's directory
// (created if missing) followed by an atomic rename. A reader racing
// Write sees either the previous complete file or the new one, never a
// torn mix; the temp file never survives, success or failure.
func Write(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	// Every error path — a failed write, chmod, close, or rename (e.g.
	// the target is blocked by an existing directory, or a permission
	// error) — must remove the temp file, or leaked temp files would
	// accumulate beside the artifact across runs. After a successful
	// rename the name no longer exists and the remove is a no-op.
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Chmod(perm); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
