package experiment

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"intango/internal/censor"
	"intango/internal/topo"
)

// ManifestVersion is the provenance document schema version.
const ManifestVersion = 2

// ShardPlan is one shard's deterministic slice of a cube: jobs
// [JobStart, JobEnd) of its canonical enumeration.
type ShardPlan struct {
	ID       int `json:"id"`
	JobStart int `json:"job_start"`
	JobEnd   int `json:"job_end"`
}

// Manifest is a checkpointed campaign's provenance document: everything
// needed to tie a checkpoint directory (and the results folded out of
// it) back to the exact cube that produced it. Every spec string is
// canonical — round-tripped through its grammar — so two manifests are
// comparable byte-for-byte regardless of how the operator spelled the
// inputs, and a directory journaled for one cube is refused by another.
type Manifest struct {
	Version   int    `json:"version"`
	Campaign  string `json:"campaign"`
	Seed      int64  `json:"seed"`
	Scale     Scale  `json:"scale"`
	TotalJobs int    `json:"total_jobs"`
	// Labels is the cube's tally layout: tally i of every frame and of
	// the result document accumulates for Labels[i].
	Labels []string `json:"labels"`
	// Strategies is the cube's distinct strategies in cube order, each
	// with its canonical strategy-spec text.
	Strategies []StrategySpec `json:"strategies"`
	// Censors is the cube's distinct job censors in cube order as
	// canonical censor-spec text ("" = the calibrated GFW population).
	Censors []string `json:"censors"`
	// Topo is the canonical topology-spec text ("" = linear path).
	Topo string `json:"topo,omitempty"`
	// Shards is the shard plan the campaign was cut into.
	Shards []ShardPlan `json:"shards"`
	// Started is the wall-clock start (RFC3339). Excluded from the
	// compatibility fingerprint: a resumed campaign keeps the original.
	Started string `json:"started,omitempty"`
}

// manifest assembles the provenance document for cube c cut at bounds,
// canonicalizing every censor and topology spec through its grammar
// (the cube resolved its strategies to canonical text when it was
// built).
func (r *Runner) manifest(c *Cube, bounds []int) (Manifest, error) {
	m := Manifest{
		Version:    ManifestVersion,
		Campaign:   c.name,
		Seed:       r.Seed,
		Scale:      c.scale,
		TotalJobs:  len(c.jobs),
		Labels:     c.labels,
		Strategies: c.specs,
	}
	seen := map[string]bool{}
	for _, j := range c.jobs {
		if seen[j.censor] {
			continue
		}
		seen[j.censor] = true
		canon := ""
		if j.censor != "" {
			cen, err := censor.Resolve(j.censor)
			if err != nil {
				return Manifest{}, fmt.Errorf("manifest: censor %q: %w", j.censor, err)
			}
			canon = cen.Spec().String()
		}
		m.Censors = append(m.Censors, canon)
	}
	if r.Topo != "" {
		t, err := topo.ParseTopo(r.Topo)
		if err != nil {
			return Manifest{}, fmt.Errorf("manifest: topo: %w", err)
		}
		m.Topo = t.String()
	}
	for i := 0; i+1 < len(bounds); i++ {
		m.Shards = append(m.Shards, ShardPlan{ID: i, JobStart: bounds[i], JobEnd: bounds[i+1]})
	}
	return m, nil
}

// fingerprint is the manifest's identity for resume compatibility:
// everything except the start time, serialized canonically.
func (m Manifest) fingerprint() string {
	m.Started = ""
	b, err := json.Marshal(m)
	if err != nil {
		panic(fmt.Sprintf("experiment: manifest fingerprint: %v", err))
	}
	return string(b)
}

// manifestPath names the provenance document inside a checkpoint dir.
func manifestPath(dir string) string { return filepath.Join(dir, "manifest.json") }

// loadManifest reads dir's manifest; (zero, false, nil) when absent.
func loadManifest(dir string) (Manifest, bool, error) {
	data, err := os.ReadFile(manifestPath(dir))
	if err != nil {
		if os.IsNotExist(err) {
			return Manifest{}, false, nil
		}
		return Manifest{}, false, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, false, fmt.Errorf("manifest: %s: %w", manifestPath(dir), err)
	}
	return m, true, nil
}

// writeManifest persists the provenance document atomically (tmp +
// rename), so a kill mid-write never leaves a torn manifest to poison
// the next resume.
func writeManifest(dir string, m Manifest) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	tmp := manifestPath(dir) + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, manifestPath(dir))
}

// reconcileManifest enforces resume safety: a checkpoint directory
// carrying a manifest for a different campaign (another cube, seed,
// scale, shard plan, or specs) is refused rather than silently
// blended. A matching manifest's Started stamp is preserved — the
// campaign started when it first started, not when it was last
// resumed.
func reconcileManifest(dir string, m *Manifest) error {
	prev, ok, err := loadManifest(dir)
	if err != nil {
		return err
	}
	if ok {
		if prev.fingerprint() != m.fingerprint() {
			return fmt.Errorf("checkpoint dir %s belongs to a different campaign (manifest mismatch); use a fresh dir or matching flags", dir)
		}
		if prev.Started != "" {
			m.Started = prev.Started
		}
		return nil
	}
	return writeManifest(dir, *m)
}
