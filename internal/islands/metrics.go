package islands

import (
	"sync"

	"dstress/internal/ga"
)

// Metrics accumulates island-search telemetry across jobs — the daemon's
// /api/v1/metrics "islands" section. All methods are safe for concurrent use.
type Metrics struct {
	mu          sync.Mutex
	searches    int64
	migrations  int64
	screened    int64
	predictions int64
	exactHits   int64
	islands     []IslandStat
}

// IslandStat is the latest recorded state of one island.
type IslandStat struct {
	Island     int     `json:"island"`
	Generation int     `json:"generation"`
	Best       float64 `json:"best"`
	Similarity float64 `json:"similarity"`
}

// MetricsSnapshot is the JSON view of the accumulated counters.
type MetricsSnapshot struct {
	// Searches counts island-model searches started (including resumes).
	Searches int64 `json:"searches"`
	// Migrations counts completed ring-migration rounds.
	Migrations int64 `json:"migrations"`
	// ScreenedOut counts offspring the surrogate discarded without real
	// evaluation.
	ScreenedOut int64 `json:"screened_out"`
	// SurrogatePredictions and SurrogateExactHits count predictor calls
	// and the subset answered from an exact training match; HitRate is
	// their ratio.
	SurrogatePredictions int64   `json:"surrogate_predictions"`
	SurrogateExactHits   int64   `json:"surrogate_exact_hits"`
	SurrogateHitRate     float64 `json:"surrogate_hit_rate"`
	// Islands holds the latest per-island best/diversity, by island index,
	// for the most recent archipelago size.
	Islands []IslandStat `json:"islands,omitempty"`
}

// NewMetrics returns an empty accumulator.
func NewMetrics() *Metrics { return &Metrics{} }

func (m *Metrics) beginSearch(k int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.searches++
	m.islands = make([]IslandStat, k)
	for i := range m.islands {
		m.islands[i].Island = i
	}
}

func (m *Metrics) addMigrations(n int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.migrations += n
	m.mu.Unlock()
}

func (m *Metrics) addScreened(n int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.screened += n
	m.mu.Unlock()
}

func (m *Metrics) addSurrogate(predictions, exactHits int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.predictions += predictions
	m.exactHits += exactHits
	m.mu.Unlock()
}

func (m *Metrics) reportIsland(i int, st ga.GenStats) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if i < len(m.islands) {
		m.islands[i] = IslandStat{Island: i, Generation: st.Generation,
			Best: st.Best, Similarity: st.Similarity}
	}
}

// Snapshot returns a copy of the counters for serving.
func (m *Metrics) Snapshot() MetricsSnapshot {
	if m == nil {
		return MetricsSnapshot{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	snap := MetricsSnapshot{
		Searches:             m.searches,
		Migrations:           m.migrations,
		ScreenedOut:          m.screened,
		SurrogatePredictions: m.predictions,
		SurrogateExactHits:   m.exactHits,
		Islands:              append([]IslandStat(nil), m.islands...),
	}
	if m.predictions > 0 {
		snap.SurrogateHitRate = float64(m.exactHits) / float64(m.predictions)
	}
	return snap
}
