package sweep

import "context"

// RankDegrees materializes every node's total degree (in + out) into the
// ranking PopMaxDegree walks down. Nodes without edges never enter it.
func (r *Runner) RankDegrees(ctx context.Context) error {
	if err := r.Schema(ctx).Create(Rel(tblDeg), Rel(tblDegIn)); err != nil {
		return err
	}
	for _, q := range []string{
		"DELETE FROM " + tblDeg,
		"DELETE FROM " + tblDegIn,
		"INSERT INTO " + tblDeg + " (nid, deg) SELECT fid, COUNT(*) FROM " + TblEdges + " GROUP BY fid",
		"INSERT INTO " + tblDegIn + " (nid, deg) SELECT tid, COUNT(*) FROM " + TblEdges + " GROUP BY tid",
		"UPDATE " + tblDeg + " SET deg = " + tblDeg + ".deg + s.deg FROM " + tblDegIn + " s WHERE " + tblDeg + ".nid = s.nid",
		"INSERT INTO " + tblDeg + " (nid, deg) SELECT s.nid, s.deg FROM " + tblDegIn + " s " +
			"WHERE NOT EXISTS (SELECT nid FROM " + tblDeg + " g WHERE g.nid = s.nid)",
	} {
		if _, err := r.Exec(ctx, q); err != nil {
			return err
		}
	}
	return nil
}

// PopMaxDegree removes the highest-degree node (lowest id on ties) from
// the ranking and returns it; ok is false once the ranking is empty.
func (r *Runner) PopMaxDegree(ctx context.Context) (nid int64, ok bool, err error) {
	nid, null, err := r.QueryInt(ctx,
		"SELECT TOP 1 nid FROM "+tblDeg+" WHERE deg = (SELECT MAX(deg) FROM "+tblDeg+")")
	if err != nil || null {
		return 0, false, err
	}
	_, err = r.Exec(ctx, "DELETE FROM "+tblDeg+" WHERE nid = ?", nid)
	return nid, true, err
}
