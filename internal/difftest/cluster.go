// Cluster-equivalence differential: a 3-replica consistent-hash
// cluster replayed on the same instance must be indistinguishable from
// a single node. Three angles per instance: a topology-aware Dial
// through one fixed entry node must reproduce the engine ranking
// byte-for-byte; a raw request entering at a node that does NOT own
// the session must come back — across the 307 hop — byte-identical to
// the owner's direct answer; and tearing the session down through yet
// another non-owner must actually delete it cluster-wide. Failures
// must stay errors.Is-equal to the single-node transport's.
package difftest

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net"
	"net/http"

	querycause "github.com/querycause/querycause"
	"github.com/querycause/querycause/internal/causegen"
	"github.com/querycause/querycause/internal/cluster"
	"github.com/querycause/querycause/internal/core"
	"github.com/querycause/querycause/internal/faultinject"
	"github.com/querycause/querycause/internal/parser"
	"github.com/querycause/querycause/internal/qerr"
	"github.com/querycause/querycause/internal/server"
)

// ClusterDiff owns three in-process querycaused replicas joined into a
// static consistent-hash ring on loopback listeners. It is safe for
// concurrent use by sweep workers.
type ClusterDiff struct {
	urls []string
	ring cluster.Ring
	srvs []*server.Server
	hss  []*http.Server
	// hc and dialOpts route the raw-wire clients and Dial'ed sessions
	// through a fault injector when WithFaults armed one.
	hc       *http.Client
	dialOpts []querycause.Option
}

// NewClusterDiff boots the 3-node cluster. Callers must Close it.
func NewClusterDiff() *ClusterDiff {
	const n = 3
	cd := &ClusterDiff{}
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			panic(fmt.Sprintf("clusterdiff: listen: %v", err))
		}
		lns[i] = ln
		cd.urls = append(cd.urls, "http://"+ln.Addr().String())
	}
	cd.ring = cluster.New(cd.urls)
	for i := range lns {
		srv := server.New(server.Config{
			ReapInterval: -1,
			// Same headroom rationale as SessionDiff: a sweep worker's
			// session must not be LRU-evicted mid-check by another's.
			MaxSessions: 128,
			Self:        cd.urls[i],
			Peers:       cd.urls,
		})
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(lns[i])
		cd.srvs = append(cd.srvs, srv)
		cd.hss = append(cd.hss, hs)
	}
	return cd
}

// WithFaults routes every HTTP exchange of the differential — the
// Dial'ed sessions and the raw wire clients — through in, with extra
// retry budget (see faultRetries). The cluster must still be
// byte-indistinguishable from a single node. It returns cd for
// chaining.
func (cd *ClusterDiff) WithFaults(in *faultinject.Injector) *ClusterDiff {
	cd.hc = &http.Client{Transport: in.Transport(nil)}
	cd.dialOpts = append(cd.dialOpts,
		querycause.WithHTTPClient(cd.hc),
		querycause.WithRetries(faultRetries))
	return cd
}

// client builds a raw wire client for base, faulted when WithFaults
// armed an injector.
func (cd *ClusterDiff) client(base string) *querycause.Client {
	c := querycause.NewClient(base, cd.hc)
	if cd.hc != nil {
		c.SetRetries(faultRetries)
	}
	return c
}

// Close shuts all replicas down.
func (cd *ClusterDiff) Close() {
	for i := range cd.hss {
		cd.hss[i].Close()
		cd.srvs[i].Close()
	}
}

// Check replays inst through the cluster and demands single-node
// indistinguishability, with want (the engine-level ModeAuto ranking)
// as the reference.
func (cd *ClusterDiff) Check(inst *causegen.Instance, want []core.Explanation) error {
	ctx := context.Background()
	wantJSON, err := json.Marshal(want)
	if err != nil {
		return err
	}

	// Angle 1: the public Session API through a fixed entry node. Dial
	// reads /v1/cluster and routes itself, so this also exercises the
	// client-side topology path on every check.
	local, err := querycause.Open(inst.DB)
	if err != nil {
		return fmt.Errorf("clusterdiff: Open: %v", err)
	}
	defer local.Close()
	remote, err := querycause.Dial(ctx, cd.urls[0], inst.DB, cd.dialOpts...)
	if err != nil {
		return fmt.Errorf("clusterdiff: Dial: %v", err)
	}
	defer remote.Close()
	rr, rerr := openRanking(ctx, remote, inst, inst.WhyNo)
	_, lerr := openRanking(ctx, local, inst, inst.WhyNo)
	if err := equalFailures("cluster open", lerr, rerr); err != nil {
		return err
	}
	if rerr != nil {
		return fmt.Errorf("clusterdiff: valid instance rejected: %v", rerr)
	}
	got, err := rr.Rank(ctx)
	if err != nil {
		return fmt.Errorf("clusterdiff: Rank: %v", err)
	}
	gotJSON, err := json.Marshal(got)
	if err != nil {
		return err
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		return fmt.Errorf("clusterdiff: clustered Rank differs from engine ranking:\ngot:  %s\nwant: %s", gotJSON, wantJSON)
	}

	// Error parity on the flipped (usually invalid) direction, same as
	// the session differential.
	_, lflip := openRanking(ctx, local, inst, !inst.WhyNo)
	_, rflip := openRanking(ctx, remote, inst, !inst.WhyNo)
	if err := equalFailures("cluster flipped open", lflip, rflip); err != nil {
		return err
	}

	// Angle 2: the raw wire path. Upload once, then ask the owner
	// directly and a wrong node (whose answer rides the 307 redirect);
	// the explanation DTOs must be byte-identical.
	text, err := parser.FormatDatabase(inst.DB)
	if err != nil {
		return fmt.Errorf("clusterdiff: format: %v", err)
	}
	entry := cd.client(cd.urls[0])
	info, err := entry.UploadDatabase(ctx, text)
	if err != nil {
		return fmt.Errorf("clusterdiff: upload: %v", err)
	}
	owner := cd.ring.Owner(info.ID)
	var wrong, third string
	for _, u := range cd.urls {
		if u == owner {
			continue
		}
		if wrong == "" {
			wrong = u
		} else {
			third = u
		}
	}
	if owner == "" || wrong == "" || third == "" {
		return fmt.Errorf("clusterdiff: could not split %v into owner/wrong/third for %s", cd.urls, info.ID)
	}
	req := querycause.ExplainRequest{Query: inst.Query.String()}
	explainVia := func(base string) (querycause.ExplainResponse, error) {
		c := cd.client(base)
		if inst.WhyNo {
			return c.WhyNo(ctx, info.ID, "", req)
		}
		return c.WhySo(ctx, info.ID, "", req)
	}
	direct, derr := explainVia(owner)
	hopped, herr := explainVia(wrong)
	if err := equalFailures("wrong-node explain", derr, herr); err != nil {
		return err
	}
	if derr == nil {
		dj, _ := json.Marshal(direct.Explanations)
		hj, _ := json.Marshal(hopped.Explanations)
		if !bytes.Equal(dj, hj) {
			return fmt.Errorf("clusterdiff: redirected ranking differs from owner's:\nowner: %s\nhop:   %s", dj, hj)
		}
		if !maps.Equal(direct.Tuples, hopped.Tuples) {
			return fmt.Errorf("clusterdiff: redirected tuple table differs from owner's:\nowner: %v\nhop:   %v", direct.Tuples, hopped.Tuples)
		}
	}

	// Angle 3: teardown through the remaining non-owner must delete the
	// session cluster-wide.
	if err := cd.client(third).DropDatabase(ctx, info.ID); err != nil {
		return fmt.Errorf("clusterdiff: delete via non-owner: %v", err)
	}
	if _, err := explainVia(owner); !errors.Is(err, qerr.ErrSessionNotFound) {
		return fmt.Errorf("clusterdiff: session %s survived a cluster-wide delete (err=%v)", info.ID, err)
	}
	return nil
}
