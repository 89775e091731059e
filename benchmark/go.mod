module crossbroker/benchmark

go 1.22

require crossbroker v0.0.0

replace crossbroker => ../
