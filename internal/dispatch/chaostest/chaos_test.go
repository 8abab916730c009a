package chaostest_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"exegpt/internal/dispatch"
	"exegpt/internal/dispatch/chaostest"
	"exegpt/internal/dispatch/httptransport"
	"exegpt/internal/dispatch/transporttest"
)

// chaosFaults is the conformance fault profile: gentle enough that the
// scenarios converge quickly, harsh enough that drops, duplicates and
// reorderings all fire many times per run.
func chaosFaults(seed int64) chaostest.Faults {
	return chaostest.Faults{
		Seed: seed, Drop: 0.08, Dup: 0.15, Delay: 0.2,
		MaxDelay: 40 * time.Millisecond,
	}
}

// relax raises the retry and failure budgets: injected faults must
// exercise the requeue/dedup recovery machinery, not trip the abort
// paths pinned by the non-chaos tests.
func relax(o *dispatch.Options) {
	o.CellRetries = 200
	o.WorkerFailures = 200
}

// TestHubConformanceUnderChaos runs the transport conformance suite
// against the in-process hub with every send subject to drop/dup/delay.
func TestHubConformanceUnderChaos(t *testing.T) {
	transporttest.Run(t, func(t *testing.T) *transporttest.Harness {
		hub := dispatch.NewHub()
		inj := chaostest.NewInjector(chaosFaults(1))
		return &transporttest.Harness{
			Coordinator: chaostest.Coordinator(hub, inj),
			Worker: func(t *testing.T, id string) dispatch.WorkerTransport {
				return chaostest.Worker(hub.Worker(id), inj)
			},
			Tune: relax,
		}
	})
}

// TestHTTPConformanceUnderChaos: the HTTP transport over real TCP under
// the same chaos, keeping its truncated-POST corruption scenario.
func TestHTTPConformanceUnderChaos(t *testing.T) {
	transporttest.Run(t, func(t *testing.T) *transporttest.Harness {
		srv := httptransport.NewServer()
		hs := httptest.NewServer(srv.Handler())
		t.Cleanup(hs.Close)
		inj := chaostest.NewInjector(chaosFaults(3))
		return &transporttest.Harness{
			Coordinator: chaostest.Coordinator(srv, inj),
			Worker: func(t *testing.T, id string) dispatch.WorkerTransport {
				c, err := httptransport.Dial(hs.URL, id, 10*time.Second)
				if err != nil {
					t.Fatal(err)
				}
				return chaostest.Worker(c, inj)
			},
			Corrupt: func() error {
				resp, err := http.Post(hs.URL+"/v1/msg", "application/json",
					strings.NewReader(`{"version":1,"type":3,"worker":"torn","resu`))
				if err != nil {
					return err
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusBadRequest {
					return fmt.Errorf("truncated frame accepted: %s", resp.Status)
				}
				return nil
			},
			Tune: relax,
		}
	})
}
