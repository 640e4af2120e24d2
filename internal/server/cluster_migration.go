package server

import (
	"cmp"
	"fmt"
	"slices"

	"gdprstore/internal/cluster"
	"gdprstore/internal/core"
	"gdprstore/internal/resp"
)

// This file is the key-streaming half of live slot migration. The
// operator marks the slot IMPORTING on the destination and MIGRATING on
// the source (cluster_admin.go); CLUSTER MIGRATESLOT on the source then
// moves the slot one subject at a time (its owner record and live
// records), holding the slot's migration lock exclusively so no command
// sees the subject on both nodes: DumpForMigration per key (the key's
// journal record, decrypted, metadata verbatim) → one pipeline of
// RESTOREKEY <record…> to the destination (re-seal, re-index, journal,
// audit) → RemoveMigrated per acknowledged key, guarded so a write that
// raced in between re-dumps instead of being lost. The subject's owner
// record goes first, alone, and is removed last. Keys of no owner move
// the same way, one at a time. A key shredded on the source is never
// dumped, so a migration cannot resurrect an erasure, and an erased
// subject's owner record moves with the slot, so the destination refuses
// the subject's writes as the source did. A record the destination refuses
// (ERASED for an owner erased there earlier, DENIED, ...) stops the
// migration with the record still on the source, for the operator to
// resolve. DESIGN.md §15.

// migrateRetries bounds re-dumps of a key that keeps being written while
// it is being moved before the slot migration reports failure.
const migrateRetries = 5

// cmdClusterMigrateSlot is the CLUSTER MIGRATESLOT handler (run on the
// source). The slot must already be MIGRATING; the reply is the number of
// records that landed on the destination. One aggregate audit record
// captures the outcome on the source; the destination audits each arriving
// record, owner records included, itself.
func cmdClusterMigrateSlot(ctx *Ctx, cs *clusterState, args [][]byte) (resp.Value, error) {
	slot, err := parseSlot(args[0])
	if err != nil {
		return resp.Value{}, err
	}
	mg, ok := cs.topo.Migration(slot)
	if !ok || mg.State != cluster.StateMigrating {
		return resp.Value{}, fmt.Errorf("slot %d is not MIGRATING on this node (CLUSTER SETSLOT %d MIGRATING <dest-id> first)", slot, slot)
	}
	if owner := cs.m.NodeForSlot(slot); owner.ID != cs.selfID {
		return resp.Value{}, fmt.Errorf("slot %d is owned by %q, not this node", slot, owner.ID)
	}
	dest, ok := cs.m.NodeByID(mg.PeerID)
	if !ok {
		return resp.Value{}, fmt.Errorf("migration destination %q is not in the map", mg.PeerID)
	}
	owners, moved, skipped, err := ctx.Srv.migrateSlot(ctx.Core, cs, slot, dest)
	detail := fmt.Sprintf("slot=%d dest=%s owners=%d moved=%d skipped=%d", slot, dest.ID, owners, moved, skipped)
	if err != nil {
		detail += " error=" + err.Error()
	}
	ctx.Srv.store.AuditMigration(ctx.Core, detail, err == nil)
	if err != nil {
		return resp.Value{}, err
	}
	return resp.IntegerValue(int64(moved)), nil
}

// migrateSlot moves every subject of slot to dest, each under the slot's
// migration lock, then the slot's keys of no owner one by one. owners
// counts the owner records carried, moved the records that landed on dest,
// and skipped the keys deleted or expired mid-stream. Any record dest
// refuses stops the migration with the source's copy kept, ERASED included:
// an owner erased on dest while its subject lived here has live records
// here that no rights command could reach once the slot moved.
func (s *Server) migrateSlot(cctx core.Ctx, cs *clusterState, slot uint16, dest cluster.Node) (owners, moved, skipped int, err error) {
	// move sends keys to dest as one pipeline of RESTOREKEYs, then removes
	// each source copy dest acknowledged, unless keep. A key written between
	// its dump and its removal is dumped and sent again, up to
	// migrateRetries times.
	move := func(keys []string, keep bool) error {
		for attempt := 0; len(keys) > 0; attempt++ {
			if attempt == migrateRetries {
				return fmt.Errorf("key %q kept changing while migrating", keys[0])
			}
			var sent, cmd []string
			var raws [][]byte
			var cmds [][]string
			for _, key := range keys {
				rec, raw, ok, err := s.store.DumpForMigration(key)
				if err != nil {
					return fmt.Errorf("dump %q: %w", key, err)
				}
				if !ok {
					skipped++
					continue
				}
				cmd = []string{"RESTOREKEY"}
				for _, a := range rec {
					cmd = append(cmd, string(a))
				}
				sent, raws, cmds = append(sent, key), append(raws, raw), append(cmds, cmd)
			}
			if len(cmds) == 0 {
				return nil
			}
			replies, err := s.peerCall(dest.Addr, cctx.Actor, cctx.Purpose, cmds...)
			if err != nil {
				return fmt.Errorf("restore on %s: %w", dest.ID, err)
			}
			var refused error
			keys = nil
			for i, key := range sent {
				if rerr := replies[i]; rerr != nil {
					refused = cmp.Or(refused, fmt.Errorf("restore %q on %s: %w", key, dest.ID, rerr))
					continue
				}
				if keep {
					continue
				}
				removed, changed := s.store.RemoveMigrated(key, raws[i])
				_, ownerRecord := core.ReservedKey(key)
				switch {
				case changed:
					// A write landed between dump and removal; the
					// destination holds a stale copy. Re-dump so the newer
					// value wins.
					keys = append(keys, key)
				case !removed:
					skipped++ // deleted or expired between dump and removal
				case ownerRecord:
					owners++
				default:
					moved++
				}
			}
			if refused != nil {
				return refused
			}
		}
		return nil
	}
	lock, seen := &cs.locks[slot], make(map[string]bool)
	for _, k := range s.store.Engine().Keys("*") {
		owner, reserved := core.ReservedKey(k)
		if rec := s.store.Engine().RecordOf(k); rec != nil && !reserved {
			owner = rec.Policy.Owner
		}
		if cluster.Slot(k) != slot || seen[owner] {
			continue
		}
		lock.Lock()
		keys := []string{k}
		if owner != "" && cluster.Slot(owner) == slot {
			seen[owner] = true
			keys = slices.DeleteFunc(s.store.SubjectKeys(owner, -1), func(k string) bool { return cluster.Slot(k) != slot })
			if s.store.Erased(owner) {
				keys = append(keys, core.OwnerKey(owner))
			}
		}
		// Only the owner record holds the subject's objections, so it lands
		// on dest ahead of the subject's records, in a pipeline of its own,
		// and leaves here after them: no record of the subject stands on
		// either node without them.
		var own []string
		if len(keys) > 1 && keys[0] == core.OwnerKey(owner) {
			own, keys = keys[:1], keys[1:]
			err = move(own, true)
		}
		if err == nil {
			err = move(keys, false)
		}
		if err == nil && own != nil {
			if removed, _ := s.store.RemoveMigrated(own[0], nil); removed {
				owners++
			}
		}
		lock.Unlock()
		if err != nil {
			break
		}
	}
	return owners, moved, skipped, err
}

// handleRestoreKey is the destination half: ingest one migration record,
// the journal record DumpForMigration built. In cluster mode the record's
// key must hash to its owner's slot (CROSSSLOT otherwise), and that slot
// must be one this node owns or is importing — the internal streaming path
// does not use ASKING, so the check lives here rather than in the cluster
// middleware (Keys is nil for RESTOREKEY).
func handleRestoreKey(ctx *Ctx) (resp.Value, error) {
	var admit func(key, owner string) error
	if cs := ctx.Srv.clusterInfo(); cs != nil {
		admit = func(key, owner string) error {
			slot := cluster.Slot(key)
			if owner != "" && cluster.Slot(owner) != slot {
				return errOffSlot
			}
			if owner := cs.m.NodeForSlot(slot); owner.ID != cs.selfID {
				mg, ok := cs.topo.Migration(slot)
				if !ok || mg.State != cluster.StateImporting {
					return fmt.Errorf("slot %d is neither owned nor importing here", slot)
				}
			}
			return nil
		}
	}
	return okOr(ctx.Srv.store.RestoreRecord(ctx.Core, ctx.Args, admit))
}
