package core

import (
	"bgqflow/internal/netsim"
	"bgqflow/internal/torus"
)

// Transport is the session-style entry point an application embeds: open
// it once, then move data between node pairs with MoveResilient as
// transfers arise. Every wave of a transfer consults the Eq. 1-5 cost
// model to decide direct versus multipath and plans its proxies against
// the network's live failure state. A Transport holds only immutable
// configuration, so one may serve concurrent transfers on separate
// engines.
type Transport struct {
	tor   *torus.Torus
	cfg   ProxyConfig
	model *CostModel
}

// NewTransport builds a transport for the partition. The cost model uses
// the machine constants in p; the ProxyConfig's fixed Threshold is
// ignored (the model derives a per-pair threshold).
func NewTransport(tor *torus.Torus, p netsim.Params, cfg ProxyConfig) (*Transport, error) {
	if err := cfg.validate(tor.Dims()); err != nil {
		return nil, err
	}
	model, err := NewCostModel(p)
	if err != nil {
		return nil, err
	}
	return &Transport{tor: tor, cfg: cfg, model: model}, nil
}
