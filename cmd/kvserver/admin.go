package main

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"clockrsm/internal/node"
	"clockrsm/internal/types"
)

// admin serves the operator lines that arrive as rpc VAdmin requests on
// the client port:
//
//	MEMBERS              -> OK g0=r0,r1,r2 g1=r0,r1,r2
//	EPOCH                -> OK g0=1 g1=1
//	STATUS               -> OK id=r0 groups=2 routes=(...) rpc=(...) g0=(epoch=... ...) g1=(...)
//	RECONF <id,id,...>   -> OK members=r0,r1,r2 epochs=g0:2,g1:2
//	ROUTES               -> OK version=3 slots=512 groups=3 g0=170 ... migrating=0
//	SPLIT <src> <dst>    -> OK from=g0 to=g2 gen=2 slots=128 pairs=940 chunks=8
//	HEAL                 -> OK splits=1 g0->g2:128
//
// RECONF drives every hosted group to the new configuration atomically
// (node.Host.ReconfigureAll); IDs may be bare ("0,1,2") or r-prefixed
// ("r0,r1,r2"). SPLIT live-moves half of group src's key slots to dst
// (a hosted spare or existing group) under the fence/checkpoint/install
// protocol of internal/reshard; HEAL rolls forward any split a crashed
// coordinator left mid-flight. It reports whether the line named a known
// verb. The rpc server bounds ctx by -client-timeout.
func (s *server) admin(ctx context.Context, line string) (string, bool) {
	verb, rest, _ := strings.Cut(line, " ")
	switch strings.ToUpper(verb) {
	case "MEMBERS":
		return "OK " + s.perGroup(func(g node.GroupStatus) string {
			return node.MemberString(g.Members)
		}), true
	case "EPOCH":
		return "OK " + s.perGroup(func(g node.GroupStatus) string {
			return strconv.FormatUint(uint64(g.Epoch), 10)
		}), true
	case "STATUS":
		st := s.host.Status()
		var b strings.Builder
		cs := s.rpc.Counters()
		fmt.Fprintf(&b, "OK id=%s groups=%d routes=(version=%d groups=%d migrating=%d) rpc=(conns=%d inflight=%d accepted=%d shed=%d)",
			st.ID, len(st.Groups), st.RouteVersion, st.RouteGroups, st.RouteMigrating,
			cs.Conns, cs.InFlight, cs.Accepted, cs.Shed)
		if len(st.Faults) > 0 {
			keys := make([]string, 0, len(st.Faults))
			for k := range st.Faults {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			b.WriteString(" faults=(")
			for i, k := range keys {
				if i > 0 {
					b.WriteByte(' ')
				}
				fmt.Fprintf(&b, "%s=%d", k, st.Faults[k])
			}
			b.WriteString(")")
		}
		for _, g := range st.Groups {
			fmt.Fprintf(&b, " %s=(epoch=%d members=%s in=%t inflight=%d proposed=%d resolved=%d lat_n=%d lat_mean=%s lat_p95=%s lat_max=%s reads=%d parked=%d read_age=%s held_dropped=%d snap_restores=%d",
				g.Group, g.Epoch, node.MemberString(g.Members), g.InConfig,
				g.InFlight, g.Proposed, g.Resolved,
				g.CommitLatency.Samples, g.CommitLatency.Mean,
				g.CommitLatency.P95, g.CommitLatency.Max,
				g.ReadsLocal, g.ReadsParked, g.ReadAge, g.HeldDropped,
				g.SnapRestores)
			if g.LinkGaps > 0 {
				fmt.Fprintf(&b, " link_gaps=%d", g.LinkGaps)
			}
			fmt.Fprintf(&b, " slots=%d migrating_out=%d", g.Slots, g.MigratingOut)
			if g.FsyncMode != "" {
				fmt.Fprintf(&b, " fsync=%s appends=%d fsyncs=%d fsync_batch_max=%d",
					g.FsyncMode, g.Log.Appends, g.Log.Syncs, g.Log.MaxBatch)
			}
			b.WriteString(")")
		}
		return b.String(), true
	case "RECONF":
		args := strings.Fields(rest)
		if len(args) != 1 {
			return "ERR usage: RECONF <id,id,...>", true
		}
		members, err := parseMembers(args[0])
		if err != nil {
			return "ERR " + err.Error(), true
		}
		if err := s.host.ReconfigureAll(ctx, members); err != nil {
			return "ERR reconf: " + err.Error(), true
		}
		st := s.host.Status()
		epochs := make([]string, len(st.Groups))
		for i, g := range st.Groups {
			epochs[i] = fmt.Sprintf("%s:%d", g.Group, g.Epoch)
		}
		return fmt.Sprintf("OK members=%s epochs=%s",
			node.MemberString(st.Groups[0].Members), strings.Join(epochs, ",")), true
	case "ROUTES":
		t := s.host.Table()
		var b strings.Builder
		fmt.Fprintf(&b, "OK version=%d slots=%d groups=%d", t.Version, t.NumSlots(), t.Groups())
		for g := 0; g < s.host.Groups(); g++ {
			fmt.Fprintf(&b, " g%d=%d", g, len(t.OwnedSlots(types.GroupID(g))))
		}
		migs := t.Migrations()
		fmt.Fprintf(&b, " migrating=%d", len(migs))
		if len(migs) > 0 {
			// Summarize migrations as from->to:gen:count, deterministic order.
			type edge struct {
				from, to types.GroupID
				gen      uint32
			}
			counts := make(map[edge]int)
			for _, c := range migs {
				counts[edge{c.Owner, c.To, c.Gen}]++
			}
			edges := make([]edge, 0, len(counts))
			for e := range counts {
				edges = append(edges, e)
			}
			sort.Slice(edges, func(i, j int) bool {
				if edges[i].from != edges[j].from {
					return edges[i].from < edges[j].from
				}
				if edges[i].to != edges[j].to {
					return edges[i].to < edges[j].to
				}
				return edges[i].gen < edges[j].gen
			})
			for _, e := range edges {
				fmt.Fprintf(&b, " %s->%s:gen%d:%d", e.from, e.to, e.gen, counts[e])
			}
		}
		return b.String(), true
	case "SPLIT":
		args := strings.Fields(rest)
		if len(args) != 2 {
			return "ERR usage: SPLIT <src-group> <dst-group>", true
		}
		src, err1 := parseGroup(args[0])
		dst, err2 := parseGroup(args[1])
		if err1 != nil || err2 != nil {
			return "ERR bad group (want g0, g1, ... or a bare index)", true
		}
		rep, err := s.host.Split(ctx, src, dst)
		if err != nil {
			return "ERR split: " + err.Error(), true
		}
		return fmt.Sprintf("OK from=%s to=%s gen=%d slots=%d pairs=%d chunks=%d",
			rep.From, rep.To, rep.Gen, rep.Slots, rep.Pairs, rep.Chunks), true
	case "HEAL":
		reps, err := s.host.Heal(ctx)
		if err != nil {
			return "ERR heal: " + err.Error(), true
		}
		var b strings.Builder
		fmt.Fprintf(&b, "OK splits=%d", len(reps))
		for _, r := range reps {
			fmt.Fprintf(&b, " %s->%s:%d", r.From, r.To, r.Slots)
		}
		return b.String(), true
	}
	return "", false
}

// parseGroup parses "g0", "G1" or a bare index into a GroupID.
func parseGroup(tok string) (types.GroupID, error) {
	tok = strings.TrimPrefix(strings.ToLower(strings.TrimSpace(tok)), "g")
	n, err := strconv.Atoi(tok)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad group %q", tok)
	}
	return types.GroupID(n), nil
}

// perGroup renders one field per hosted group as "g0=v0 g1=v1 ...".
func (s *server) perGroup(field func(node.GroupStatus) string) string {
	st := s.host.Status()
	parts := make([]string, len(st.Groups))
	for i, g := range st.Groups {
		parts[i] = fmt.Sprintf("%s=%s", g.Group, field(g))
	}
	return strings.Join(parts, " ")
}

// parseMembers parses "0,1,2" or "r0,r1,r2" into replica IDs.
func parseMembers(list string) ([]types.ReplicaID, error) {
	var out []types.ReplicaID
	for _, tok := range strings.Split(list, ",") {
		tok = strings.TrimSpace(strings.TrimPrefix(strings.ToLower(strings.TrimSpace(tok)), "r"))
		if tok == "" {
			return nil, fmt.Errorf("empty replica ID in %q", list)
		}
		id, err := strconv.Atoi(tok)
		if err != nil || id < 0 {
			return nil, fmt.Errorf("bad replica ID %q", tok)
		}
		out = append(out, types.ReplicaID(id))
	}
	return out, nil
}
