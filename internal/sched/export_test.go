package sched

// SetVerifyWatermark switches the watermark cross-check on or off for the
// external tests of this package (see verifyWatermark).
func SetVerifyWatermark(on bool) { verifyWatermark = on }
