package core

import (
	"testing"

	"repro/internal/metadata"
	"repro/internal/search"
)

func TestSnapshotLoadRoundTrip(t *testing.T) {
	sys, _ := buildSystem(t, defaultCfg(), defaultOpts())
	// Exercise feedback so the snapshot carries removals.
	victim := sys.Repo.Links(metadata.LinkXRef)[0]
	sys.RemoveLinkFeedback(victim)
	wantLinks := sys.Repo.LinkCount(-1)

	snap := sys.Snapshot()
	if len(snap.Sources) != 6 {
		t.Fatalf("snapshot sources = %d", len(snap.Sources))
	}
	// Sources are listed in registration order (swissprot before pdb),
	// the order restore registers them in again.
	for i, name := range sys.Sources() {
		if snap.Sources[i].Name != name {
			t.Errorf("snapshot source %d = %s, want %s (registration order %v)", i, snap.Sources[i].Name, name, sys.Sources())
		}
	}

	restored, err := Load(defaultOpts(), snap)
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.Repo.LinkCount(-1); got != wantLinks {
		t.Errorf("restored links = %d want %d", got, wantLinks)
	}
	// The removed link must stay removed.
	if restored.Repo.AddLink(victim) {
		t.Error("restored system re-accepted a feedback-removed link")
	}
	// Structures rediscovered identically.
	for _, m := range sys.Repo.Sources() {
		rm := restored.Repo.Source(m.Name)
		if rm == nil {
			t.Fatalf("missing restored source %s", m.Name)
		}
		if rm.Structure.Primary != m.Structure.Primary {
			t.Errorf("%s primary = %q want %q", m.Name, rm.Structure.Primary, m.Structure.Primary)
		}
	}
	// All three access modes work on the restored system.
	if rs := restored.Search("hemoglobin", search.Filter{}, 3); len(rs) == 0 {
		t.Error("restored search empty")
	}
	res, err := restored.Query(`SELECT COUNT(*) FROM swissprot_protein`)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.Rows[0][0].AsInt(); n != 24 {
		t.Errorf("restored query count = %d", n)
	}
	objs := restored.Objects("swissprot")
	if len(objs) != 24 {
		t.Fatalf("restored objects = %d", len(objs))
	}
	if _, err := restored.Browse(objs[0]); err != nil {
		t.Errorf("restored browse: %v", err)
	}
}
