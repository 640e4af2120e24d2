package server

import (
	"fmt"
	"strings"

	"gdprstore/internal/cluster"
	"gdprstore/internal/core"
	"gdprstore/internal/resp"
	"gdprstore/internal/wirecode"
)

// This file is the key-streaming half of live slot migration. The
// operator marks the slot IMPORTING on the destination and MIGRATING on
// the source (cluster_admin.go); CLUSTER MIGRATESLOT on the source then
// sends one OBJECTLOCAL per standing objection of each owner record in the
// slot (a union there; the source keeps its copy), so no key lands before
// its subject's objections. Then, per key: DumpForMigration (the key's
// journal record, decrypted under the source keyring, metadata verbatim) →
// RESTOREKEY <record…> on the destination (re-seal, re-index, journal,
// audit) → RemoveMigrated on the source, guarded so a write that raced in
// between re-dumps instead of being lost. Erasures win over migration in
// both directions: a key shredded on the source is never dumped, and a
// record whose owner is shredded on the destination is refused with
// ERASED — the source skips it and lets the sweep reclaim the dead
// ciphertext.

// migrateRetries bounds re-dumps of a key that keeps being written while
// it is being moved before the slot migration reports failure.
const migrateRetries = 5

// cmdClusterMigrateSlot is the CLUSTER MIGRATESLOT handler (run on the
// source). The slot must already be MIGRATING; the reply is the number of
// records that landed on the destination. One aggregate audit record
// captures the outcome on the source; the destination audits each
// objection and arriving record itself.
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
	if err := ctx.Srv.store.AuthorizeMigration(ctx.Core); err != nil {
		return resp.Value{}, err
	}
	owners, moved, skipped, err := ctx.Srv.migrateSlot(ctx.Core, slot, dest)
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

// migrateSlot carries slot's owner records to dest, then streams every
// live key of slot. skipped counts keys that did not need to move: erased
// ghosts, keys deleted or expired mid-stream, and records the destination
// refused with ERASED because the owner was already shredded there.
func (s *Server) migrateSlot(cctx core.Ctx, slot uint16, dest cluster.Node) (owners, moved, skipped int, err error) {
	for _, k := range s.store.Engine().Keys("*") {
		owner, ok := core.ReservedKey(k)
		if !ok || cluster.Slot(k) != slot {
			continue
		}
		for _, p := range s.store.Objections(owner) {
			if _, cerr := s.peerCall(dest.Addr, cctx.Actor, cctx.Purpose, "OBJECTLOCAL", owner, p); cerr != nil {
				return owners, 0, 0, fmt.Errorf("carry %s's objection on %s: %w", owner, dest.ID, cerr)
			}
		}
		owners++
	}
	for _, key := range s.keysInSlot(slot, -1) {
	attempts:
		for attempt := 0; ; attempt++ {
			if attempt >= migrateRetries {
				return owners, moved, skipped, fmt.Errorf("key %q kept changing while migrating", key)
			}
			rec, raw, ok, derr := s.store.DumpForMigration(key)
			if derr != nil {
				return owners, moved, skipped, fmt.Errorf("dump %q: %w", key, derr)
			}
			if !ok {
				skipped++
				break attempts
			}
			args := make([]string, 0, 1+len(rec))
			args = append(args, "RESTOREKEY")
			for _, a := range rec {
				args = append(args, string(a))
			}
			if _, cerr := s.peerCall(dest.Addr, cctx.Actor, cctx.Purpose, args...); cerr != nil {
				if strings.HasPrefix(cerr.Error(), wirecode.Erased) {
					// An erasure raced ahead of the migration and already
					// reached the destination: the record is dead. Leave
					// the source copy for the sweep; do not resurrect.
					skipped++
					break attempts
				}
				return owners, moved, skipped, fmt.Errorf("restore %q on %s: %w", key, dest.ID, cerr)
			}
			removed, changed := s.store.RemoveMigrated(key, raw)
			if changed {
				// A write landed between dump and removal; the destination
				// holds a stale copy. Re-dump so the newer value wins.
				continue
			}
			if removed {
				moved++
			} else {
				// Deleted or erased between dump and removal; the restored
				// copy on the destination is dead or will be erased by the
				// same fan-out that removed it here.
				skipped++
			}
			break attempts
		}
	}
	return owners, moved, skipped, nil
}

// handleRestoreKey is the destination half: ingest one migration record,
// the journal record DumpForMigration built. The record's slot must be one
// this node owns or is importing — the internal streaming path does not
// use ASKING, so the check lives here rather than in the cluster
// middleware (Keys is nil for RESTOREKEY).
func handleRestoreKey(ctx *Ctx) (resp.Value, error) {
	var admit func(key string) error
	if cs := ctx.Srv.clusterInfo(); cs != nil {
		admit = func(key string) error {
			slot := cluster.Slot(key)
			if owner := cs.m.NodeForSlot(slot); owner.ID != cs.selfID {
				mg, ok := cs.topo.Migration(slot)
				if !ok || mg.State != cluster.StateImporting {
					return fmt.Errorf("slot %d is neither owned nor importing here", slot)
				}
			}
			return nil
		}
	}
	if err := ctx.Srv.store.RestoreRecord(ctx.Core, ctx.Args, admit); err != nil {
		return resp.Value{}, err
	}
	return resp.SimpleStringValue("OK"), nil
}
