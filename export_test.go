package mpa

import "mpa/internal/experiments"

// Hooks for the package's external tests (answers_test.go).

// SetBuildIdentity makes the answers disk tier key on id in place of
// the running binary's identity until the returned restore is called.
func SetBuildIdentity(id string) (restore func()) {
	old := buildIdentity
	buildIdentity = func() string { return id }
	return func() { buildIdentity = old }
}

// DataOnly returns a framework whose snapshot holds nothing but f's
// current Params and Data: no substrates, no analysis rows, no memo and
// no disk tier, so it computes every answer from those two alone.
func DataOnly(f *Framework) *Framework {
	env := f.environment()
	q := &Framework{}
	q.env.Store(&experiments.Env{Params: env.Params, Data: env.Data})
	return q
}

// DataDigest returns the dataset digest of f's current snapshot.
func DataDigest(f *Framework) [32]byte { return f.environment().DataDigest() }
