package mpa

// The answers disk tier: a restarted daemon answers from disk. An
// organization-wide answer that reads nothing of its snapshot but
// Params and Data (the ranking, a causal analysis, a prediction, most
// reports) is a function of those two and of the code that computed
// it, so with a cache directory its stored form is written under a key
// covering exactly them, and a framework built later over the same
// data reads it back instead of retraining models and rerunning CV and
// QED. The tier is on exactly when CacheConfig.Dir is set and the
// running binary's identity can be read; otherwise nothing is hashed or
// written. Entries are never evicted.

import (
	"crypto/sha256"
	"debug/elf"
	"encoding/hex"
	"io"
	"os"
	"sync"

	"mpa/internal/cache"
	"mpa/internal/experiments"
)

// buildIdentity names the running binary, read once per process (see
// readBuildIdentity). Answers computed by other code never match.
var buildIdentity = sync.OnceValue(readBuildIdentity)

// readBuildIdentity returns the executable's Go build ID, read from its
// .note.go.buildid ELF note, or the SHA-256 of the executable where it
// has no such note; "" when neither can be read.
func readBuildIdentity() string {
	exe, err := os.Executable()
	if err != nil {
		return ""
	}
	if ef, err := elf.Open(exe); err == nil {
		id := goBuildID(ef)
		ef.Close()
		if id != "" {
			return "go:" + id
		}
	}
	file, err := os.Open(exe)
	if err != nil {
		return ""
	}
	defer file.Close()
	h := sha256.New()
	if _, err := io.Copy(h, file); err != nil {
		return ""
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}

// goBuildID returns the descriptor of ef's .note.go.buildid note: a
// 4-byte name size, descriptor size and type, then the name padded to 4
// bytes, then the build ID.
func goBuildID(ef *elf.File) string {
	sec := ef.Section(".note.go.buildid")
	if sec == nil {
		return ""
	}
	b, err := sec.Data()
	if err != nil || len(b) < 12 {
		return ""
	}
	nameSize := uint64(ef.ByteOrder.Uint32(b[0:]))
	descSize := uint64(ef.ByteOrder.Uint32(b[4:]))
	start := 12 + (nameSize+3)&^3
	if start+descSize > uint64(len(b)) {
		return ""
	}
	return string(b[start : start+descSize])
}

// newAnswers returns the answers disk tier for cc, or nil when it is
// off: no Dir, or no readable build identity.
func newAnswers(cc CacheConfig) *cache.Cache {
	if cc.Dir == "" || buildIdentity() == "" {
		return nil
	}
	return cache.New("answers", cc)
}

// answerKey is the disk key of the answer stored under key in env's
// whole-organization memo: the running binary, the memo key, the
// canonical Params and the digest of the dataset.
func answerKey(env *experiments.Env, key string) cache.Key {
	p := env.Params
	data := env.DataDigest()
	return cache.NewHasher("answers/v1").String(buildIdentity()).String(key).
		Int(int64(p.Seed)).Int(int64(p.Networks)).
		Int(int64(p.Start.Year)).Int(int64(p.Start.Mon)).
		Int(int64(p.End.Year)).Int(int64(p.End.Mon)).
		String(string(data[:])).Sum()
}

// OnDisk returns the whole-organization answer stored under key in the
// answers disk tier, computing it on a miss and writing it there. The
// answer must read nothing of f's snapshot but Params and Data: the
// disk key covers only those (answerKey). f is the framework a Memoized
// build is handed, pinned to one snapshot, and OnDisk runs inside that
// build, so the memo's single flight covers the disk read too. Without
// the tier it calls compute. fromDisk reports whether the value was
// read from disk. An entry codec.Decode rejects is deleted, counted
// under cache.answers.disk_corrupt, recomputed and rewritten.
func OnDisk[T any](f *Framework, key string, codec cache.Codec[T], compute func() (T, error)) (v T, fromDisk bool, err error) {
	if f.answers == nil {
		v, err = compute()
		return v, false, err
	}
	computed := false
	v, err = cache.GetOrCompute(f.answers, answerKey(f.environment(), key), codec, func() (T, error) {
		computed = true
		return compute()
	})
	return v, err == nil && !computed, err
}

// ReportReadsOnlyData reports whether the experiment id is a known
// report that reads nothing of its snapshot but Params and Data, so its
// answer may go to the answers disk tier (OnDisk).
func ReportReadsOnlyData(id string) bool { return experiments.ReadsOnlyData(id) }

// RecordReportDigest records a report's digest in the current
// snapshot's manifest report_digests, as running the report does. A
// caller that answers a report from a stored copy (OnDisk) records the
// digest the copy carries, so the manifest lists every report answered.
func (f *Framework) RecordReportDigest(id, digest string) {
	f.environment().RecordDigest(id, digest)
}
