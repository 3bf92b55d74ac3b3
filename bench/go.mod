module pard/bench

go 1.24.0

require pard v0.0.0

replace pard => ../
