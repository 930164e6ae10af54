module liferaft/bench

go 1.24

require liferaft v0.0.0

replace liferaft => ../
