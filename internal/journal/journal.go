// Package journal is the durable JSONL append log behind every
// checkpoint in the repository: the farm and fleet-coordinator shard
// journal, the explore corpus journal, the crashsim and scarce sweep
// journals, the result store's segment and the service's campaign queue.
//
// The contract: every record is one line, fsynced before Append returns,
// so a kill at any instant loses at most the record in flight.  A torn
// line — a write cut short by a crash, an I/O error or an injected
// fault — is always newline-terminated, by the writer when the write
// fails and by Open when a crash left it at the tail, so the next record
// starts a fresh line instead of fusing onto the fragment.  Replay hands
// back every non-blank line; the engines skip what does not parse and
// apply their own validation to the rest.
package journal

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ballista/internal/chaos"
)

// maxLine bounds one journal line.  A longer line is corrupt or hostile:
// Replay stops there with an error.
const maxLine = 16 << 20

// Append retry schedule: transient write faults (injected or real) back
// off briefly and retry; six attempts cover any transient chaos plan.
const (
	appendAttempts = 6
	backoffBase    = time.Millisecond
	backoffMax     = 20 * time.Millisecond
)

// Journal is an open append handle.  Append is safe for concurrent use.
type Journal struct {
	mu    sync.Mutex
	f     *os.File
	site  string
	inj   *chaos.Injector // harness-domain fault session; nil when chaos is off
	stats *chaos.Stats
}

// Open opens the journal at path for appending, creating its directory
// and the file as needed.  When header is non-nil and the file is new or
// empty, header is marshalled as the first line, written atomically so
// no crash window leaves a torn identity line.  A torn last line left by
// an earlier crash is newline-terminated.
func Open(path string, header any) (*Journal, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if header != nil {
		if st, err := os.Stat(path); os.IsNotExist(err) || (err == nil && st.Size() == 0) {
			line, err := json.Marshal(header)
			if err != nil {
				return nil, fmt.Errorf("journal: encoding header: %w", err)
			}
			if err := writeFileAtomic(path, append(line, '\n')); err != nil {
				return nil, fmt.Errorf("journal: writing header: %w", err)
			}
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if err := terminateTornTail(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: terminating torn tail of %s: %w", path, err)
	}
	return &Journal{f: f}, nil
}

// terminateTornTail appends a newline when the file's last byte is not
// one, so the next append cannot concatenate onto a crash's stub.
func terminateTornTail(f *os.File) error {
	st, err := f.Stat()
	if err != nil || st.Size() == 0 {
		return err
	}
	last := make([]byte, 1)
	if _, err := f.ReadAt(last, st.Size()-1); err != nil {
		return err
	}
	if last[0] == '\n' {
		return nil
	}
	if _, err := f.Write([]byte{'\n'}); err != nil {
		return err
	}
	return f.Sync()
}

// writeFileAtomic writes data as path via a same-directory temp file,
// fsync and rename, so a crash mid-write can never leave a half-written
// file at path.  The directory fsync is best-effort (some filesystems
// refuse it); the rename itself is the atomicity guarantee.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op once renamed
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// Arm sets up harness-domain fault injection: every append attempt first
// consults inj at (chaos.OpCkptWrite, site), and retries count into
// stats.  Either may be nil.
func (j *Journal) Arm(inj *chaos.Injector, stats *chaos.Stats, site string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.inj, j.stats, j.site = inj, stats, site
}

// Append marshals v as one line and makes it durable: write plus fsync,
// retried with capped backoff.  It returns the last attempt's error.
func (j *Journal) Append(v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("journal: encoding record: %w", err)
	}
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	var last error
	for attempt := 0; attempt < appendAttempts; attempt++ {
		if attempt > 0 {
			j.stats.AddRetried()
			time.Sleep(min(backoffBase<<(attempt-1), backoffMax))
		}
		if last = j.writeLine(line); last == nil {
			return nil
		}
	}
	return last
}

// writeLine is one append attempt: injected faults first, then the real
// write, then fsync so the record survives a kill the instant Append
// returns.  A torn write, injected or real, is newline-terminated so the
// file stays line-structured and a retry appends a clean record after it.
func (j *Journal) writeLine(line []byte) error {
	if flt, ok := j.inj.Fault(chaos.OpCkptWrite, j.site); ok {
		if flt.Kind == chaos.KindShort {
			torn := append([]byte(nil), line[:len(line)/2]...)
			j.f.Write(append(torn, '\n'))
		}
		return chaos.ErrInjected
	}
	n, err := j.f.Write(line)
	if err != nil {
		if n > 0 && line[n-1] != '\n' {
			j.f.Write([]byte{'\n'})
		}
		return err
	}
	return j.f.Sync()
}

// Close closes the file.  Every appended record is already durable.
func (j *Journal) Close() error { return j.f.Close() }

// Replay calls fn with each non-blank line of the journal at path, in
// file order, and stops at fn's first error, returning it unchanged.  A
// missing file is a fresh journal: Replay returns nil without calling
// fn.  The slice passed to fn is only valid during the call.
func Replay(path string, fn func(line []byte) error) error {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	return scan(f, path, maxLine, fn)
}

// scan is Replay's loop over any reader, with the line cap a parameter.
func scan(r io.Reader, name string, limit int, fn func(line []byte) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, min(64<<10, limit)), limit)
	for sc.Scan() {
		if line := sc.Bytes(); len(line) > 0 {
			if err := fn(line); err != nil {
				return err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("journal: reading %s: %w", name, err)
	}
	return nil
}
