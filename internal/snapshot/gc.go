package snapshot

// GC removes superseded snapshot versions, returning how many version
// directories it deleted. It keeps the `keep` newest complete snapshots —
// none at keep 0, which retires every snapshot of a graph a load replaced —
// and removes:
//
//   - complete versions older than the keep set, and
//   - manifest-less (failed or abandoned) version directories whose
//     version is below the latest complete manifest's.
//
// The second rule is what makes GC safe to run concurrently with a
// snapshot in progress: an in-flight writer's version equals the engine's
// current graph version, which is >= the latest committed manifest's
// version (hydration starts at the manifest version and versions only
// ever grow), so a directory strictly below the latest manifest can never
// be a live write — only a crashed one.
func GC(store ChunkStore, keep int) (int, error) {
	vis, err := Versions(store)
	if err != nil {
		return 0, err
	}
	var latestComplete uint64
	haveComplete := false
	complete := 0
	for _, vi := range vis {
		if vi.Complete {
			complete++
			if vi.Version > latestComplete {
				latestComplete = vi.Version
				haveComplete = true
			}
		}
	}
	removed := 0
	surviving := complete
	for _, vi := range vis { // ascending: oldest candidates first
		del := false
		switch {
		case vi.Complete:
			if surviving > keep {
				del = true
				surviving--
			}
		default:
			del = haveComplete && vi.Version < latestComplete
		}
		if !del {
			continue
		}
		// Manifest first so the version stops being "complete" before its
		// chunks disappear — a crash mid-GC leaves a manifest-less dir that
		// the next GC pass finishes off.
		objs := vi.Objects
		if vi.Complete {
			m := versionDir(vi.Version) + "/manifest.json"
			if err := store.Delete(m); err != nil {
				return removed, err
			}
			rest := objs[:0:0]
			for _, o := range objs {
				if o != m {
					rest = append(rest, o)
				}
			}
			objs = rest
		}
		for _, o := range objs {
			if err := store.Delete(o); err != nil {
				return removed, err
			}
		}
		removed++
	}
	return removed, nil
}
