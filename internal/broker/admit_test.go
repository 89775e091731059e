package broker

import (
	"strings"
	"testing"
	"time"

	"crossbroker/internal/infosys"
	"crossbroker/internal/netsim"
	"crossbroker/internal/site"
)

// strayRecord publishes a record, passing equivJob's Requirements, for
// a site no broker registered.
func strayRecord(t *testing.T, info *infosys.Service, name string) {
	t.Helper()
	rec := infosys.SiteRecord{
		Name:      name,
		Attrs:     map[string]any{"Arch": "i686", "OS": "linux", "MemoryMB": 512, "Preferred": 3},
		TotalCPUs: 2, FreeCPUs: 2,
	}
	if err := info.Publish(rec); err != nil {
		t.Fatal(err)
	}
}

// candNames lists the candidates' site names.
func candNames(cands []candidate) string {
	names := make([]string, len(cands))
	for i, c := range cands {
		names[i] = c.site.Name()
	}
	return strings.Join(names, " ")
}

// TestAdmissionCacheSeesLateRegistration: a pass caches the row
// position of a record whose site is not registered as unregistered.
// The site then registers, and its publish keeps the row, position and
// name string: the next pass must admit it, which it does only because
// RegisterSite clears the cache.
func TestAdmissionCacheSeesLateRegistration(t *testing.T) {
	job := equivJob(t)
	sim, b := equivGrid(Config{Seed: 2006}, 1)
	info := b.cfg.Info.(*infosys.Service)
	strayRecord(t, info, "site05a")

	if got := candNames(runMatchPass(t, sim, b, job)); strings.Contains(got, "site05a") {
		t.Fatalf("unregistered site05a admitted: %s", got)
	}
	b.RegisterSite(site.New(sim, site.Config{
		Name:            "site05a",
		Nodes:           2,
		Network:         netsim.CampusGrid(),
		Costs:           site.DefaultCosts(),
		PublishInterval: 10000 * time.Hour,
	}))
	if got := candNames(runMatchPass(t, sim, b, job)); !strings.Contains(got, "site05a") {
		t.Fatalf("site05a registered after a pass cached its row, not admitted by the next: %s", got)
	}
}

// TestAdmissionCacheFollowsMovedRows: removing one record and inserting
// another moves rows within a shard, so a cached row position now holds
// another site's record. Every pass must still admit each record by
// its name, as the whole-snapshot oracle does on an identical grid.
func TestAdmissionCacheFollowsMovedRows(t *testing.T) {
	job := equivJob(t)
	rounds := []func(info *infosys.Service){
		func(info *infosys.Service) {},
		func(info *infosys.Service) { info.Remove("site03"); strayRecord(t, info, "site00a") },
		func(info *infosys.Service) {
			info.Remove("site00a")
			info.Remove("site17")
			strayRecord(t, info, "site20a")
		},
		func(info *infosys.Service) { strayRecord(t, info, "site00b"); strayRecord(t, info, "site00c") },
	}
	run := func(oracle bool) []string {
		sim, b := equivGrid(Config{Seed: 2006}, 1)
		if oracle {
			useOracle(b)
		}
		var out []string
		for _, mutate := range rounds {
			mutate(b.cfg.Info.(*infosys.Service))
			var lines []string
			for _, c := range runMatchPass(t, sim, b, job) {
				lines = append(lines, candLine(c))
			}
			out = append(out, strings.Join(lines, "\n"))
		}
		return out
	}
	want, got := run(true), run(false)
	for r := range want {
		if got[r] != want[r] {
			t.Fatalf("round %d: the pass admitted\n%s\nthe oracle\n%s", r, got[r], want[r])
		}
	}
}
