package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"dramless/internal/obs"
	"dramless/internal/system"
)

// refFS holds the committed reference digests, one file per workload.
//
//go:embed ref/*.json
var refFS embed.FS

// refSet is one workload's reference file: the digest of every op's
// simulated output, keyed by op.
type refSet struct {
	Workload string            `json:"workload"`
	Seed     *int64            `json:"seed,omitempty"` // set when the digests hold for one seed only
	Digests  map[string]string `json:"digests"`
}

func loadRefs(workload string) (*refSet, error) {
	b, err := refFS.ReadFile("ref/" + workload + ".json")
	if err != nil {
		return nil, err
	}
	var r refSet
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("ref/%s.json: %w", workload, err)
	}
	return &r, nil
}

// check compares an op's digest with the reference, when the reference
// covers this seed.
func (r *refSet) check(seed int64, key, digest string) error {
	if r.Seed != nil && *r.Seed != seed {
		return nil
	}
	want, ok := r.Digests[key]
	if !ok {
		return fmt.Errorf("%s: no reference digest", key)
	}
	if want != digest {
		return fmt.Errorf("%s: digest %.12s, reference %.12s", key, digest, want)
	}
	return nil
}

func (r *refSet) write(dir string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, r.Workload+".json"), append(b, '\n'), 0o644)
}

// cellDigest covers everything a simulation cell reports: phase walls,
// energy by component, counters, the blame account and the latency
// histograms.
func cellDigest(res *system.Result, ob *obs.Observer) (string, error) {
	h := sha256.New()
	fmt.Fprintf(h, "walls %d %d %d %d footprint %d\n", res.Load, res.Kernel, res.Store, res.Total, res.Footprint)
	en := res.Energy.Breakdown()
	for _, k := range en.Keys() {
		fmt.Fprintf(h, "energy %s %s\n", k, strconv.FormatFloat(en.Get(k), 'x', -1, 64))
	}
	for _, m := range []json.Marshaler{&res.Counters, res.Blame, ob.Histograms()} {
		js, err := m.MarshalJSON()
		if err != nil {
			return "", err
		}
		h.Write(js)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// regenRefs re-simulates every op once and rewrites the reference
// files in dir.
func regenRefs(dir string) error {
	seed := int64(defaultSeed)
	for _, name := range workloadNames {
		w, err := newBench(name, seed)
		if err != nil {
			return err
		}
		r := &refSet{Workload: name, Digests: map[string]string{}}
		if name == "jobs-mix" {
			r.Seed = &seed
		}
		for _, o := range w.ops(0) {
			d, err := o.run(nil, nil)
			if err != nil {
				return err
			}
			r.Digests[o.key] = d
		}
		w.endPass(nil)
		if err := r.write(dir); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%s: %d reference digests\n", name, len(r.Digests))
	}
	return nil
}
