package dispatch_test

import (
	"testing"

	"exegpt/internal/dispatch"
	"exegpt/internal/dispatch/transporttest"
)

// TestHubConformance runs the shared transport conformance suite
// against the in-process channel hub.
func TestHubConformance(t *testing.T) {
	transporttest.Run(t, func(t *testing.T) *transporttest.Harness {
		hub := dispatch.NewHub()
		return &transporttest.Harness{
			Coordinator: hub,
			Worker: func(t *testing.T, id string) dispatch.WorkerTransport {
				return hub.Worker(id)
			},
		}
	})
}
