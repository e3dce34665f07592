// Package geom models the geostationary satellite and sensor geometry the
// paper's stereo pipeline relies on (§2.1: "the estimated disparity or
// depth maps can be transformed into surface maps z(t) of cloud-top
// heights ... using satellite and sensor geometry information"): parallax
// height retrieval for a two-satellite stereo pair and the growth of the
// pixel ground footprint away from nadir (§5.1: "pixels in the center of
// the image span approximately 1 sq-km whereas pixels near the borders
// span approximately 4 sq-km due to the larger field-of-view").
package geom

import (
	"fmt"
	"math"
)

// Physical constants (km).
const (
	EarthRadiusKm = 6378.0
	GeoAltitudeKm = 35786.0
)

// Stereo describes a two-satellite geostationary stereo configuration for
// an equatorial target: the GOES-6/GOES-7 Hurricane Frederic setup
// "subtended an angle of about 135° with respect to the center of the
// Earth", i.e. satellite longitudes ±67.5° from the target.
type Stereo struct {
	// SatLonEast and SatLonWest are the satellite longitudes in degrees.
	SatLonEast, SatLonWest float64
	// TargetLon is the target's longitude in degrees.
	TargetLon float64
	// KmPerPixel is the image ground sampling at the target.
	KmPerPixel float64
}

// Frederic returns the GOES-6/GOES-7 configuration of §5.1: a 135°
// subtended angle and 1 km sampling at image center.
func Frederic() Stereo {
	return Stereo{SatLonEast: 67.5, SatLonWest: -67.5, TargetLon: 0, KmPerPixel: 1}
}

// TanZenith returns tan of the viewing zenith angle at the target for a
// satellite at the given longitude (degrees). For a target at geocentric
// angle Δ from the sub-satellite point,
//
//	tan θ = (R+H)·sinΔ / ((R+H)·cosΔ − R).
func (s Stereo) TanZenith(satLon float64) (float64, error) {
	delta := math.Abs(satLon-s.TargetLon) * math.Pi / 180
	rs := EarthRadiusKm + GeoAltitudeKm
	den := rs*math.Cos(delta) - EarthRadiusKm
	if den <= 0 {
		return 0, fmt.Errorf("geom: target beyond the horizon of satellite at %.1f°", satLon)
	}
	return rs * math.Sin(delta) / den, nil
}

// DisparityPerKm returns the stereo disparity, in pixels, produced by one
// kilometer of cloud-top height: each satellite displaces the cloud's
// apparent position by h·tanθ away from its own sub-satellite point, and
// for a target between the satellites the two displacements are opposed,
// so they add in the disparity.
func (s Stereo) DisparityPerKm() (float64, error) {
	if s.KmPerPixel <= 0 {
		return 0, fmt.Errorf("geom: KmPerPixel must be positive")
	}
	te, err := s.TanZenith(s.SatLonEast)
	if err != nil {
		return 0, err
	}
	tw, err := s.TanZenith(s.SatLonWest)
	if err != nil {
		return 0, err
	}
	return (te + tw) / s.KmPerPixel, nil
}

// HeightFromDisparity converts a measured disparity (pixels) to cloud-top
// height (km).
//
//smavet:allow deadexport -- DESIGN.md §7 geostationary geometry: parallax height retrieval
func (s Stereo) HeightFromDisparity(dPx float64) (float64, error) {
	dpk, err := s.DisparityPerKm()
	if err != nil {
		return 0, err
	}
	return dPx / dpk, nil
}

// DisparityFromHeight converts a cloud-top height (km) to the disparity
// (pixels) the stereo pair observes.
//
//smavet:allow deadexport -- DESIGN.md §7 geostationary geometry: parallax height retrieval
func (s Stereo) DisparityFromHeight(hKm float64) (float64, error) {
	dpk, err := s.DisparityPerKm()
	if err != nil {
		return 0, err
	}
	return hKm * dpk, nil
}

// FootprintKm returns the along-scan ground footprint of a pixel viewing
// a point at geocentric angle deltaDeg from the sub-satellite point. The
// scan step subtends a constant angle at the satellite, so the footprint
// is the slant range over the nadir altitude, divided by the cosine of
// the viewing zenith angle (foreshortening):
//
//	footprint = nadirKm · (|PS| / H) / cos θ.
//
//smavet:allow deadexport -- DESIGN.md §7 geostationary geometry: 1 km to 4 km pixel footprint growth
func FootprintKm(nadirKm, deltaDeg float64) (float64, error) {
	if nadirKm <= 0 {
		return 0, fmt.Errorf("geom: nadir footprint must be positive")
	}
	delta := math.Abs(deltaDeg) * math.Pi / 180
	rs := EarthRadiusKm + GeoAltitudeKm
	den := rs*math.Cos(delta) - EarthRadiusKm
	if den <= 0 {
		return 0, fmt.Errorf("geom: point beyond the horizon (Δ = %.1f°)", deltaDeg)
	}
	slant := math.Sqrt(EarthRadiusKm*EarthRadiusKm + rs*rs - 2*EarthRadiusKm*rs*math.Cos(delta))
	tanTheta := rs * math.Sin(delta) / den
	cosTheta := 1 / math.Sqrt(1+tanTheta*tanTheta)
	return nadirKm * (slant / GeoAltitudeKm) / cosTheta, nil
}
