package runner

import (
	"context"
	"slices"
	"testing"
	"time"

	"clockrsm/internal/core"
	"clockrsm/internal/kvstore"
	"clockrsm/internal/types"
)

// TestCrashChurn is the crash-churn scenario of Section V-B asserted
// end to end: three replicas over TCP and group-commit file logs, three
// crash+restart cycles under closed-loop load, zero lost acked
// commands, cross-replica agreement, per-key linearizable reads over
// survivors, and checkpoint + tail catch-up on every restart.
func TestCrashChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("crash churn runs multi-second kill/restart cycles")
	}
	res, err := RunCrashChurn(CrashChurnConfig{
		Dir:    t.TempDir(),
		Cycles: 3,
		Debug:  t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kills != 3 {
		t.Errorf("Kills = %d, want 3", res.Kills)
	}
	if res.Acked == 0 {
		t.Error("no writes were acked; the run exercised nothing")
	}
	if res.Reads == 0 {
		t.Error("no linearizable reads completed; the run checked nothing")
	}
	if res.SnapRestores < 3 {
		t.Errorf("SnapRestores = %d, want at least one per restart (3)", res.SnapRestores)
	}
	if res.MaxRecovery <= 0 || res.MaxRecovery > 15*time.Second {
		t.Errorf("MaxRecovery = %v, want within (0, 15s]", res.MaxRecovery)
	}
	t.Logf("acked=%d resubmitted=%d reads=%d snap_restores=%d max_recovery=%v",
		res.Acked, res.Resubmitted, res.Reads, res.SnapRestores, res.MaxRecovery)
}

// TestExitedPeerSuspectedAtOnce: over TCP, the survivors' transports see
// a killed replica's process exit (its link breaks and the redial is
// refused), so they reconfigure it out and commit again within a second,
// although the detector's timeout alone would take five.
func TestExitedPeerSuspectedAtOnce(t *testing.T) {
	c, err := newCluster(clusterSpec{
		replicas: 3, groups: 1, tcp: true,
		core:   core.Options{ClockTimeInterval: faultDelta, SuspectTimeout: 5 * time.Second, ConsensusRetry: faultConsensusRetry},
		debugf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.stop()
	put := func(ctx context.Context, at types.ReplicaID) error {
		_, err := c.rep(at).host.Execute(ctx, "k", kvstore.Put("k", []byte{byte('0' + at)}))
		return err
	}
	for _, at := range []types.ReplicaID{0, 1} { // so both survivors' links to r2 are up
		ctx, cancel := context.WithTimeout(context.Background(), churnStep)
		err := put(ctx, at)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
	}

	if err := c.kill(2); err != nil {
		t.Fatal(err)
	}
	killed := time.Now()
	ctx, cancel := context.WithDeadline(context.Background(), killed.Add(time.Second))
	defer cancel()
	for _, at := range []types.ReplicaID{0, 1} {
		for slices.Contains(c.rep(at).host.Status().Groups[0].Members, 2) {
			if ctx.Err() != nil {
				t.Fatalf("r%d still configures the killed r2 1s after the kill:%s", at, c.dump())
			}
			time.Sleep(time.Millisecond)
		}
	}
	if err := put(ctx, 0); err != nil {
		t.Fatalf("no put committed within 1s of the kill: %v", err)
	}
	t.Logf("r2 removed and a put committed %v after the kill", time.Since(killed))
}
