package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/pem"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"repro/internal/applestore"
	"repro/internal/archive"
	"repro/internal/authroot"
	"repro/internal/certdata"
	"repro/internal/certgen"
	"repro/internal/certutil"
	"repro/internal/jks"
	"repro/internal/nodecerts"
	"repro/internal/paperdata"
	"repro/internal/pemstore"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/synth"
)

// corpusSeed is the paper-scale corpus every workload runs on: 820
// snapshots of 10 providers, 401 distinct roots.
const corpusSeed = "tracing-your-roots"

// setupRepeats is how often a run sets its workload up; setup_s is the
// median. Tests lower it to keep runs short.
var setupRepeats = 3

// repeatSetup runs build n times, timing each run, and keeps the last
// result; earlier results are released with drop. Repeating set-up lets
// setup_s be reported as a median.
func repeatSetup[T any](n int, build func() (T, error), drop func(T)) (T, []time.Duration, error) {
	var (
		out   T
		times []time.Duration
	)
	for i := 0; i < n; i++ {
		if i > 0 {
			drop(out)
		}
		start := time.Now()
		v, err := build()
		if err != nil {
			return out, nil, err
		}
		times = append(times, time.Since(start))
		out = v
	}
	// Hand the set-up garbage back to the OS now, so the runtime's
	// background scavenger does not do it during the measured phases.
	debug.FreeOSMemory()
	return out, times, nil
}

// server is a trustd instance hosted in the benchmark process on a
// loopback listener, behind the benchmark's middleware.
type server struct {
	srv  *service.Server
	mw   *middleware
	hs   *http.Server
	base string
	done chan struct{}
}

// boot starts a server over db and waits for its first 2xx on /healthz.
func boot(db *store.Database) (*server, error) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	srv := service.New(db, service.Config{Logger: logger})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: srv, mw: &middleware{next: srv.Handler()}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	s.hs = &http.Server{Handler: s.mw, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln)
	}()
	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode/100 == 2 {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.close()
			return nil, fmt.Errorf("server did not answer /healthz with 2xx: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// close stops the server and waits for its serve loop to end.
func (s *server) close() {
	if s == nil {
		return
	}
	s.hs.Close()
	<-s.done
}

// get fetches a path outside any load phase (set-up and oracle reads).
func (s *server) fetch(client *http.Client, method, path string, body []byte, inm string) (status int, gen string, out []byte, err error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	out, err = io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Rootpack-Hash"), out, err
}

// generate builds the paper-scale corpus.
func generate() (*synth.Ecosystem, error) {
	eco, err := synth.Generate(corpusSeed)
	if err != nil {
		return nil, err
	}
	if n := eco.DB.TotalSnapshots(); n != 820 {
		return nil, fmt.Errorf("corpus has %d snapshots, want 820", n)
	}
	return eco, nil
}

// leaf is one minted end-entity certificate.
type leaf struct {
	der []byte
	pem string
}

// anchorCAs picks the CAs the benchmark's leaves chain to: the first two
// server-auth roots of NSS's latest snapshot that the synthetic universe
// can sign with, so every leaf is under an NSS-trusted CA.
func anchorCAs(eco *synth.Ecosystem) ([]*synth.CA, error) {
	var out []*synth.CA
	for _, e := range eco.DB.History(paperdata.NSS).Latest().Entries() {
		if !e.TrustedFor(store.ServerAuth) {
			continue
		}
		if ca := eco.Universe.Lookup(e.Label); ca != nil && ca.Root != nil {
			out = append(out, ca)
			if len(out) == 2 {
				return out, nil
			}
		}
	}
	return nil, errors.New("NSS's latest snapshot has fewer than two signable server-auth roots")
}

// mintLeaves issues n leaves named after the seed, alternating between
// the anchor CAs. Every leaf is valid across all providers' latest
// snapshot dates, so outcomes depend on store contents alone.
func mintLeaves(eco *synth.Ecosystem, seed int64, prefix string, n int) ([]leaf, error) {
	cas, err := anchorCAs(eco)
	if err != nil {
		return nil, err
	}
	pool := certgen.NewKeyPool("trustd-bench/leaves")
	out := make([]leaf, n)
	for i := range out {
		cn := fmt.Sprintf("%s-%d-%d.bench.test", prefix, seed, i)
		der, _, err := cas[i%len(cas)].Root.IssueLeaf(pool, certgen.LeafSpec{
			CommonName: cn,
			DNSNames:   []string{cn},
			NotBefore:  time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC),
			NotAfter:   time.Date(2022, 6, 1, 0, 0, 0, 0, time.UTC),
		})
		if err != nil {
			return nil, err
		}
		out[i] = leaf{der: der, pem: string(pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: der}))}
	}
	return out, nil
}

// encodeArchive renders db as a rootpack archive held in memory.
func encodeArchive(db *store.Database) ([]byte, [archive.HashLen]byte, error) {
	var buf bytes.Buffer
	h, err := archive.Encode(&buf, db, [archive.HashLen]byte{})
	return buf.Bytes(), h, err
}

// decodeArchive is the reload path up to the swap: open the archive bytes,
// check their content hash, decode the database. Each step is timed into
// the tracer when one is attached.
func decodeArchive(tr *tracer, data []byte) (*store.Database, [archive.HashLen]byte, error) {
	var hash [archive.HashLen]byte
	r, err := archive.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, hash, err
	}
	defer r.Close()
	tr.time("archive.verify_hash", "", func() { err = r.VerifyContentHash() })
	if err != nil {
		return nil, hash, err
	}
	var db *store.Database
	tr.time("archive.decode", "", func() { db, err = r.DatabaseCtx(context.Background()) })
	return db, r.ContentHash(), err
}

// withoutRoot returns a copy of db whose latest NSS snapshot lacks one
// server-auth root that other snapshots still carry, so every read path
// resolves in both databases while their bodies and hashes differ. The
// copy shares entries with db; db is not modified.
func withoutRoot(db *store.Database) (*store.Database, certutil.Fingerprint, error) {
	target := db.History(paperdata.NSS).Latest()
	var drop certutil.Fingerprint
	for _, e := range target.Entries() {
		if e.TrustedFor(store.ServerAuth) {
			drop = e.Fingerprint
			break
		}
	}
	out := store.NewDatabase()
	for _, snap := range db.AllSnapshots() {
		c := snap.ShareClone()
		if snap == target && !c.Remove(drop) {
			return nil, drop, errors.New("latest NSS snapshot has no root to drop")
		}
		if err := out.AddSnapshot(c); err != nil {
			return nil, drop, err
		}
	}
	return out, drop, nil
}

// writeTree writes every snapshot of db in its provider's native format
// under root/<provider>/<YYYY-MM-DD>/, on nproc goroutines. Date-named
// version directories make the catalog read each snapshot's date from its
// name.
func writeTree(root string, db *store.Database) error {
	snaps := db.AllSnapshots()
	dirs := make([]string, len(snaps))
	seen := map[string]bool{}
	for i, s := range snaps {
		dirs[i] = filepath.Join(root, s.Provider, s.Date.Format("2006-01-02"))
		if seen[dirs[i]] {
			return fmt.Errorf("two %s snapshots dated %s", s.Provider, s.Date.Format("2006-01-02"))
		}
		seen[dirs[i]] = true
	}
	errs := make([]error, len(snaps))
	parallel(len(snaps), func(i int) {
		if err := os.MkdirAll(dirs[i], 0o755); err != nil {
			errs[i] = err
		} else if err := writeNative(dirs[i], snaps[i].Provider, snaps[i]); err != nil {
			errs[i] = fmt.Errorf("%s %s: %w", snaps[i].Provider, snaps[i].Version, err)
		}
	})
	return errors.Join(errs...)
}

// writeNative writes one snapshot the way each provider publishes it.
func writeNative(dir, provider string, s *store.Snapshot) error {
	entries := s.Entries()
	switch provider {
	case paperdata.Microsoft:
		return authroot.WriteBundle(dir, entries, s.Date.Unix(), s.Date)
	case paperdata.Apple:
		return applestore.WriteDir(dir, entries)
	case paperdata.Java:
		data, err := jks.Marshal(jks.FromEntries(entries, s.Date), "changeit")
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, "cacerts.jks"), data, 0o644)
	}
	var (
		name  string
		write func(io.Writer) error
	)
	switch provider {
	case paperdata.NSS:
		name, write = "certdata.txt", func(w io.Writer) error { return certdata.Marshal(w, entries) }
	case paperdata.NodeJS:
		name, write = "node_root_certs.h", func(w io.Writer) error { return nodecerts.Marshal(w, entries) }
	default: // the Linux-style derivatives
		name, write = "tls-ca-bundle.pem", func(w io.Writer) error { return pemstore.WriteBundle(w, entries, store.ServerAuth) }
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := write(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
