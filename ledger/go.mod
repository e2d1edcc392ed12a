module waterwheel/ledger

go 1.22

require waterwheel v0.0.0

replace waterwheel => ../
