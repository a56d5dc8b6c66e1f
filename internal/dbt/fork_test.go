package dbt_test

import (
	"reflect"
	"sync"
	"testing"

	"hipstr/internal/dbt"
	"hipstr/internal/fatbin"
	"hipstr/internal/isa"
)

// TestForkOfFreshPrototypeEqualsColdBoot: a fork taken right after boot
// must be byte- and stats-indistinguishable from a cold New of the same
// config — same translations, same cache bytes, same run outcome.
func TestForkOfFreshPrototypeEqualsColdBoot(t *testing.T) {
	bin, want := compile(t, "sumloop")
	cfg := dbt.DefaultConfig()
	cfg.Seed = 11
	cfg.MigrateProb = 0
	cfg.NoSharedUnits = true // compare two fully cold translation paths

	cold, err := dbt.New(bin, isa.X86, cfg)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := dbt.New(bin, isa.X86, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fork, err := proto.Snapshot().Fork(dbt.ForkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, vm := range []*dbt.VM{cold, fork} {
		if _, err := vm.Run(maxSteps); err != nil {
			t.Fatal(err)
		}
		if !vm.P.Exited || vm.P.ExitCode != want {
			t.Fatalf("exit=%v code=%d want %d", vm.P.Exited, vm.P.ExitCode, want)
		}
	}
	if !reflect.DeepEqual(cold.Stats, fork.Stats) {
		t.Fatalf("stats diverged:\ncold %+v\nfork %+v", cold.Stats, fork.Stats)
	}
	for _, k := range isa.Kinds {
		cu, fu := cold.Cache(k).Used(), fork.Cache(k).Used()
		if cu != fu {
			t.Fatalf("%s cache used: cold %d fork %d", k, cu, fu)
		}
		cb := make([]byte, cu)
		fb := make([]byte, fu)
		if err := cold.P.Mem.Read(fatbin.CacheBase(k), cb); err != nil {
			t.Fatal(err)
		}
		if err := fork.P.Mem.Read(fatbin.CacheBase(k), fb); err != nil {
			t.Fatal(err)
		}
		if string(cb) != string(fb) {
			t.Fatalf("%s cache bytes diverged between cold boot and fork", k)
		}
	}
}

// TestForkIsolation: forks of one snapshot run to completion without
// perturbing each other or the prototype (VM-level CoW divergence).
func TestForkIsolation(t *testing.T) {
	bin, want := compile(t, "sumloop")
	cfg := dbt.DefaultConfig()
	cfg.MigrateProb = 0
	proto, err := dbt.New(bin, isa.X86, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := proto.Snapshot()
	a, err := snap.Fork(dbt.ForkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := snap.Fork(dbt.ForkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Run A to completion; B and the prototype must be untouched by A's
	// heap/stack/cache writes.
	if _, err := a.Run(maxSteps); err != nil {
		t.Fatal(err)
	}
	if a.P.ExitCode != want {
		t.Fatalf("fork A exit %d want %d", a.P.ExitCode, want)
	}
	if b.P.M.Steps != 0 || b.P.Exited {
		t.Fatal("fork B advanced when only A ran")
	}
	for _, vm := range []*dbt.VM{b, proto} {
		if _, err := vm.Run(maxSteps); err != nil {
			t.Fatal(err)
		}
		if vm.P.ExitCode != want {
			t.Fatalf("exit %d want %d", vm.P.ExitCode, want)
		}
	}
	if a.P.Mem.CowBroken() == 0 {
		t.Fatal("fork A completed without breaking any CoW page")
	}
}

// TestSnapshotRespawnReRandomizes: a respawn fork re-randomizes relocation
// maps under the new seed while restoring the snapshot's memory image.
func TestSnapshotRespawnReRandomizes(t *testing.T) {
	bin, want := compile(t, "sumloop")
	cfg := dbt.DefaultConfig()
	cfg.MigrateProb = 0
	proto, err := dbt.New(bin, isa.X86, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := proto.Snapshot()
	re, err := snap.Respawn(isa.X86, 999, dbt.ForkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fn := bin.Func("main")
	m1 := proto.MapOf(fn)[isa.X86]
	m2 := re.MapOf(fn)[isa.X86]
	if reflect.DeepEqual(m1.OffTo, m2.OffTo) {
		t.Fatal("respawn fork did not re-randomize the relocation map")
	}
	if _, err := re.Run(maxSteps); err != nil {
		t.Fatal(err)
	}
	if re.P.ExitCode != want {
		t.Fatalf("respawned fork exit %d want %d", re.P.ExitCode, want)
	}
	// The prototype must still run unperturbed afterwards.
	if _, err := proto.Run(maxSteps); err != nil {
		t.Fatal(err)
	}
	if proto.P.ExitCode != want {
		t.Fatalf("prototype exit %d want %d", proto.P.ExitCode, want)
	}
}

// TestForksShareDecodedBlocks: forks of one snapshot share its decoded
// block table, and sharing is invisible in everything a guest or a
// dashboard sees. Two forks run one after the other must end exactly like
// a cold boot that decoded everything itself — same state and the same
// block-cache and fusion counters — except that the second fork served
// its refills from the table instead of decoding.
func TestForksShareDecodedBlocks(t *testing.T) {
	bin, want := compile(t, "fib")
	cfg := dbt.DefaultConfig()
	cfg.Seed = 5
	cfg.NoSharedUnits = true // compare two fully cold translation paths
	cold, err := dbt.New(bin, isa.X86, cfg)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := dbt.New(bin, isa.X86, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := proto.Snapshot()
	var forks []*dbt.VM
	for i := 0; i < 2; i++ {
		f, err := snap.Fork(dbt.ForkConfig{})
		if err != nil {
			t.Fatal(err)
		}
		forks = append(forks, f)
	}
	for _, vm := range append([]*dbt.VM{cold}, forks...) {
		if _, err := vm.Run(maxSteps); err != nil {
			t.Fatal(err)
		}
		if !vm.P.Exited || vm.P.ExitCode != want {
			t.Fatalf("exit=%v code=%d want %d", vm.P.Exited, vm.P.ExitCode, want)
		}
	}
	wantBS, wantFS := cold.P.M.BlockStats(), cold.P.M.FusionStats()
	if wantBS.SharedHits != 0 {
		t.Fatalf("cold boot reports %d shared hits", wantBS.SharedHits)
	}
	for i, f := range forks {
		if f.P.M.State != cold.P.M.State {
			t.Fatalf("fork %d state %+v, cold %+v", i, f.P.M.State, cold.P.M.State)
		}
		bs := f.P.M.BlockStats()
		bs.SharedHits = 0
		if bs != wantBS {
			t.Fatalf("fork %d block stats %+v, cold %+v", i, bs, wantBS)
		}
		if fs := f.P.M.FusionStats(); fs != wantFS {
			t.Fatalf("fork %d fusion stats %+v, cold %+v", i, fs, wantFS)
		}
	}
	if h := forks[1].P.M.BlockStats().SharedHits; h == 0 {
		t.Fatal("second fork decoded every block again; the snapshot's table went unused")
	}
}

// TestEightForksSharedSnapshotRace: eight VMs forked from one snapshot run
// concurrently (run with -race): shared CoW frames, the shared unit cache,
// the shared decoded-block table and the snapshot structures must all be
// safe, and every guest must end exactly as a fork run alone does.
func TestEightForksSharedSnapshotRace(t *testing.T) {
	bin, want := compile(t, "collatz")
	cfg := dbt.DefaultConfig()
	cfg.SharedUnits = dbt.NewUnitCache(dbt.DefaultUnitCacheBytes)
	proto, err := dbt.New(bin, isa.X86, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The serial reference forks a snapshot of its own, so it neither
	// warms nor reads the concurrent forks' table.
	serial, err := proto.Snapshot().Fork(dbt.ForkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := serial.Run(maxSteps); err != nil {
		t.Fatal(err)
	}
	if serial.P.ExitCode != want {
		t.Fatalf("serial fork exit %d want %d", serial.P.ExitCode, want)
	}
	snap := proto.Snapshot()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	vms := make([]*dbt.VM, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vm, err := snap.Fork(dbt.ForkConfig{})
			if err != nil {
				errs <- err
				return
			}
			if _, err := vm.Run(maxSteps); err != nil {
				errs <- err
				return
			}
			vms[i] = vm
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i, vm := range vms {
		if vm.P.M.State != serial.P.M.State || vm.P.ExitCode != serial.P.ExitCode ||
			!reflect.DeepEqual(vm.P.Trace, serial.P.Trace) {
			t.Fatalf("fork %d ended in state %+v (exit %d), serial fork %+v (exit %d)",
				i, vm.P.M.State, vm.P.ExitCode, serial.P.M.State, serial.P.ExitCode)
		}
		if got, want := vm.P.M.BlockStats().Misses, serial.P.M.BlockStats().Misses; got != want {
			t.Fatalf("fork %d refilled %d blocks, serial fork %d", i, got, want)
		}
		if got, want := vm.P.M.FusionStats().PairsFused, serial.P.M.FusionStats().PairsFused; got != want {
			t.Fatalf("fork %d fused %d pairs, serial fork %d", i, got, want)
		}
	}
}
