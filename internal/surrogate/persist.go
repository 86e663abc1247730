package surrogate

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/rulers"
)

// Set-file load failures are typed; match with errors.Is.
var (
	// ErrCorrupt wraps undecodable or structurally invalid set files.
	ErrCorrupt = errors.New("surrogate: corrupt set file")
	// ErrVersionSkew marks a set file from an incompatible format version.
	ErrVersionSkew = errors.New("surrogate: unsupported set file version")
	// ErrDimensionMismatch marks a set file fitted against a different
	// number of sharing dimensions than this build models.
	ErrDimensionMismatch = errors.New("surrogate: set file dimension count mismatch")
)

// setFileVersion is the on-disk format version of a saved Set.
const setFileVersion = 1

// setEnvelope is the on-disk form: version and dimension count guard the
// payload against skewed readers.
type setEnvelope struct {
	Version    int  `json:"version"`
	Dimensions int  `json:"dimensions"`
	Set        *Set `json:"set"`
}

// SaveSet writes the set as versioned JSON.
func SaveSet(w io.Writer, s *Set) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(setEnvelope{
		Version:    setFileVersion,
		Dimensions: int(rulers.NumDimensions),
		Set:        s,
	}); err != nil {
		return fmt.Errorf("surrogate: encoding set: %w", err)
	}
	return nil
}

// LoadSet reads a set saved by SaveSet, rejecting version or dimension
// skew with typed errors, and a set it cannot serve with ErrCorrupt: a
// null model, a model filed under another application's name, or a
// negative residual bound (which would pass every accuracy threshold).
func LoadSet(r io.Reader) (*Set, error) {
	var env setEnvelope
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if env.Version != setFileVersion {
		return nil, fmt.Errorf("%w: file has version %d, this build reads %d", ErrVersionSkew, env.Version, setFileVersion)
	}
	if env.Dimensions != int(rulers.NumDimensions) {
		return nil, fmt.Errorf("%w: file fitted over %d dimensions, this build models %d", ErrDimensionMismatch, env.Dimensions, rulers.NumDimensions)
	}
	if env.Set == nil {
		return nil, fmt.Errorf("%w: envelope carries no set", ErrCorrupt)
	}
	if env.Set.Models == nil {
		env.Set.Models = make(map[string]*Model)
	}
	for app, m := range env.Set.Models {
		if err := checkModel(app, m); err != nil {
			return nil, fmt.Errorf("%w: model %q: %v", ErrCorrupt, app, err)
		}
	}
	return env.Set, nil
}

// checkModel rejects a model the set cannot serve under key app.
func checkModel(app string, m *Model) error {
	if m == nil {
		return errors.New("null")
	}
	if m.App != app {
		return fmt.Errorf("carries app %q", m.App)
	}
	for d := range m.Sen {
		for _, c := range [...]Curve{m.Sen[d], m.Con[d]} {
			if c.MaxAbsErr < 0 || c.MeanAbsErr < 0 {
				return fmt.Errorf("negative residual bound on dimension %d", d)
			}
		}
	}
	return nil
}

// WriteSetFile saves the set to path atomically (temp file + rename).
func WriteSetFile(path string, s *Set) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".surrogate-*.tmp")
	if err != nil {
		return fmt.Errorf("surrogate: staging set file: %w", err)
	}
	if err := SaveSet(tmp, s); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("surrogate: writing set file: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("surrogate: publishing set file: %w", err)
	}
	return nil
}

// ReadSetFile loads a set from path.
func ReadSetFile(path string) (*Set, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("surrogate: opening set file: %w", err)
	}
	defer f.Close()
	return LoadSet(f)
}
