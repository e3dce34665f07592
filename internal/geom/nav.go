package geom

import (
	"fmt"
	"math"
)

// Nav is a geostationary imaging navigation model: the transform between
// sensor scan angles and geographic coordinates that McIDAS "nav blocks"
// encode and that real cloud-wind production needs to map pixel
// displacements onto the Earth. The satellite sits over SatLon on the
// equator at the geostationary radius; the sensor's optical axis points
// at the sub-satellite point.
type Nav struct {
	SatLon float64 // sub-satellite longitude, degrees
}

// sat returns the satellite position in an Earth-centered frame whose
// x-axis points at the sub-satellite point and z-axis at the north pole.
func (n Nav) satRadius() float64 { return EarthRadiusKm + GeoAltitudeKm }

// ToScanAngles converts geographic coordinates (geocentric degrees) to
// sensor scan angles (alpha: east-west, beta: north-south, radians).
// It fails for points on the far side of the Earth.
//
//smavet:allow deadexport -- DESIGN.md §7 geostationary geometry: scan-angle to lat/lon navigation
func (n Nav) ToScanAngles(latDeg, lonDeg float64) (alpha, beta float64, err error) {
	phi := latDeg * math.Pi / 180
	dlam := (lonDeg - n.SatLon) * math.Pi / 180
	px := EarthRadiusKm * math.Cos(phi) * math.Cos(dlam)
	py := EarthRadiusKm * math.Cos(phi) * math.Sin(dlam)
	pz := EarthRadiusKm * math.Sin(phi)
	// Visibility: the point must face the satellite (P·(S−P) > 0 with S
	// on the +x axis reduces to px > R²/rs).
	if px <= EarthRadiusKm*EarthRadiusKm/n.satRadius() {
		return 0, 0, fmt.Errorf("geom: point (%.2f, %.2f) not visible from %.1f°",
			latDeg, lonDeg, n.SatLon)
	}
	vx := px - n.satRadius()
	vy := py
	vz := pz
	alpha = math.Atan2(vy, -vx)
	beta = math.Asin(vz / math.Sqrt(vx*vx+vy*vy+vz*vz))
	return alpha, beta, nil
}

// ToLatLon converts sensor scan angles back to geographic coordinates.
// It fails with a "space look" error when the ray misses the Earth.
//
//smavet:allow deadexport -- DESIGN.md §7 geostationary geometry: scan-angle to lat/lon navigation
func (n Nav) ToLatLon(alpha, beta float64) (latDeg, lonDeg float64, err error) {
	// Ray from the satellite: d = (−cosβ·cosα, cosβ·sinα, sinβ).
	dx := -math.Cos(beta) * math.Cos(alpha)
	dy := math.Cos(beta) * math.Sin(alpha)
	dz := math.Sin(beta)
	rs := n.satRadius()
	// |S + t·d|² = R² with S = (rs, 0, 0).
	bHalf := rs * dx
	c := rs*rs - EarthRadiusKm*EarthRadiusKm
	disc := bHalf*bHalf - c
	if disc < 0 {
		return 0, 0, fmt.Errorf("geom: space look (α=%.4f, β=%.4f misses the Earth)", alpha, beta)
	}
	t := -bHalf - math.Sqrt(disc) // near-side intersection
	if t <= 0 {
		return 0, 0, fmt.Errorf("geom: ray does not reach the Earth")
	}
	px := rs + t*dx
	py := t * dy
	pz := t * dz
	latDeg = math.Asin(pz/EarthRadiusKm) * 180 / math.Pi
	lonDeg = n.SatLon + math.Atan2(py, px)*180/math.Pi
	return latDeg, lonDeg, nil
}

// GroundDistanceKm returns the great-circle distance between two
// geographic points — used to convert tracked pixel displacements into
// ground distances for wind speeds.
//
//smavet:allow deadexport -- DESIGN.md §7 geostationary geometry: scan-angle to lat/lon navigation
func GroundDistanceKm(lat1, lon1, lat2, lon2 float64) float64 {
	p1 := lat1 * math.Pi / 180
	p2 := lat2 * math.Pi / 180
	dl := (lon2 - lon1) * math.Pi / 180
	// Haversine.
	s := math.Sin((p2 - p1) / 2)
	t := math.Sin(dl / 2)
	h := s*s + math.Cos(p1)*math.Cos(p2)*t*t
	return 2 * EarthRadiusKm * math.Asin(math.Min(1, math.Sqrt(h)))
}

// EarthEdgeAngle returns the scan angle (radians) at which the Earth's
// limb appears: asin(R / (R+H)) ≈ 8.7° for the geostationary orbit.
//
//smavet:allow deadexport -- DESIGN.md §7 geostationary geometry: scan-angle to lat/lon navigation
func EarthEdgeAngle() float64 {
	return math.Asin(EarthRadiusKm / (EarthRadiusKm + GeoAltitudeKm))
}
