// Package geom provides the spherical geometry primitives used throughout
// LifeRaft: unit vectors on the celestial sphere, right-ascension /
// declination conversions, angular separations, spherical caps, and
// spherical-triangle containment tests.
//
// All positions are represented as unit vectors (Vec3) in a right-handed
// Cartesian frame: the x axis points at (ra=0, dec=0), the z axis at the
// north celestial pole. Angles are degrees at the API boundary and radians
// internally, following astronomy convention.
package geom

import (
	"fmt"
	"math"
)

// Epsilon is the tolerance used for geometric sidedness tests. Spherical
// triangle containment must be tolerant of floating-point drift at trixel
// boundaries; this value matches the tolerance used by the SDSS HTM
// implementation.
const Epsilon = 1e-12

// Vec3 is a vector in three-dimensional Cartesian space. Positions on the
// celestial sphere are unit vectors.
type Vec3 struct {
	X, Y, Z float64
}

// Add returns the component-wise sum v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns the component-wise difference v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns v scaled by s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Dot returns the inner product v · w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the vector product v × w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		v.Y*w.Z - v.Z*w.Y,
		v.Z*w.X - v.X*w.Z,
		v.X*w.Y - v.Y*w.X,
	}
}

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Normalize returns v scaled to unit length. Normalizing the zero vector
// returns the zero vector.
func (v Vec3) Normalize() Vec3 {
	n := v.Norm()
	if n == 0 {
		return Vec3{}
	}
	return v.Scale(1 / n)
}

// IsUnit reports whether v is a finite vector of unit length, to within the
// rounding of a normalized one: a point of the sphere. NaN and infinite
// components fail it, and so does the zero vector.
func (v Vec3) IsUnit() bool { return math.Abs(v.Dot(v)-1) <= 1e-9 }

// Mid returns the unit vector at the midpoint of the great-circle arc
// between unit vectors v and w. It is the edge-bisection operation of the
// HTM quad-tree decomposition.
func (v Vec3) Mid(w Vec3) Vec3 { return v.Add(w).Normalize() }

// Angle returns the angular separation between unit vectors v and w in
// radians. It uses atan2 of the cross and dot products, which is accurate
// for both small and near-antipodal separations (acos of a dot product
// loses precision at both extremes, and cross-match radii are arcseconds).
func (v Vec3) Angle(w Vec3) float64 {
	return math.Atan2(v.Cross(w).Norm(), v.Dot(w))
}

// String formats the vector with enough precision for debugging.
func (v Vec3) String() string {
	return fmt.Sprintf("(%.9f, %.9f, %.9f)", v.X, v.Y, v.Z)
}

// Degrees converts radians to degrees.
func Degrees(rad float64) float64 { return rad * 180 / math.Pi }

// Radians converts degrees to radians.
func Radians(deg float64) float64 { return deg * math.Pi / 180 }

// ArcsecToRad converts arcseconds to radians. Cross-match radii in SkyQuery
// are specified in arcseconds.
func ArcsecToRad(arcsec float64) float64 { return Radians(arcsec / 3600) }

// RadToArcsec converts radians to arcseconds.
func RadToArcsec(rad float64) float64 { return Degrees(rad) * 3600 }

// FromRaDec converts equatorial coordinates (right ascension and
// declination, both in degrees) to a unit vector. RA is taken modulo 360
// and dec is clamped to [-90, 90].
func FromRaDec(raDeg, decDeg float64) Vec3 {
	ra := Radians(math.Mod(math.Mod(raDeg, 360)+360, 360))
	dec := Radians(clamp(decDeg, -90, 90))
	cd := math.Cos(dec)
	return Vec3{cd * math.Cos(ra), cd * math.Sin(ra), math.Sin(dec)}
}

// ToRaDec converts a unit vector to equatorial coordinates in degrees. RA
// is in [0, 360); dec in [-90, 90]. The RA of a pole vector is 0.
func ToRaDec(v Vec3) (raDeg, decDeg float64) {
	dec := math.Asin(clamp(v.Z, -1, 1))
	ra := math.Atan2(v.Y, v.X)
	if ra < 0 {
		ra += 2 * math.Pi
	}
	if math.Abs(v.X) < Epsilon && math.Abs(v.Y) < Epsilon {
		ra = 0
	}
	return Degrees(ra), Degrees(dec)
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Cap is a spherical cap: the set of unit vectors p with p·Center >= CosR.
// It represents the circular search region around a cross-match object.
type Cap struct {
	Center Vec3    // unit vector at the cap center
	CosR   float64 // cosine of the angular radius
}

// NewCap builds a cap from a center unit vector and an angular radius in
// radians. Radii are clamped to [0, pi].
func NewCap(center Vec3, radiusRad float64) Cap {
	return Cap{Center: center.Normalize(), CosR: math.Cos(clamp(radiusRad, 0, math.Pi))}
}

// Radius returns the angular radius of the cap in radians.
func (c Cap) Radius() float64 { return math.Acos(clamp(c.CosR, -1, 1)) }

// Contains reports whether unit vector p lies inside the cap (boundary
// inclusive, within Epsilon).
func (c Cap) Contains(p Vec3) bool { return p.Dot(c.Center) >= c.CosR-Epsilon }

// IntersectsArc reports whether the cap intersects the great-circle arc
// between unit vectors a and b. The test finds the point of the great
// circle through a and b closest to the cap center and checks whether that
// point lies on the arc segment.
func (c Cap) IntersectsArc(a, b Vec3) bool {
	if c.Contains(a) || c.Contains(b) {
		return true
	}
	n := a.Cross(b)
	nn := n.Norm()
	if nn < Epsilon {
		return false // degenerate arc
	}
	n = n.Scale(1 / nn)
	// Distance from cap center to the great circle's plane.
	sinDist := math.Abs(c.Center.Dot(n))
	cosDist := math.Sqrt(math.Max(0, 1-sinDist*sinDist))
	if cosDist < c.CosR-Epsilon {
		return false // circle never enters the cap
	}
	// Closest point on the great circle to the center.
	p := c.Center.Sub(n.Scale(c.Center.Dot(n))).Normalize()
	if p.Norm() == 0 {
		return true // center on the circle's axis: whole circle equidistant
	}
	// p must lie on the arc (between a and b): p is on the minor arc iff it
	// is on the same side as the other endpoint for both edge normals.
	return a.Cross(p).Dot(n) >= -Epsilon && p.Cross(b).Dot(n) >= -Epsilon
}

// Triangle is a spherical triangle with counterclockwise-ordered unit
// vertices (as seen from outside the sphere). HTM trixels are Triangles.
type Triangle struct {
	V0, V1, V2 Vec3
}

// Contains reports whether unit vector p lies inside the triangle
// (boundary inclusive). A point is inside iff it is on the inner side of
// all three edge planes.
func (t Triangle) Contains(p Vec3) bool {
	return t.V0.Cross(t.V1).Dot(p) >= -Epsilon &&
		t.V1.Cross(t.V2).Dot(p) >= -Epsilon &&
		t.V2.Cross(t.V0).Dot(p) >= -Epsilon
}

// Center returns the (normalized) centroid of the triangle.
func (t Triangle) Center() Vec3 {
	return t.V0.Add(t.V1).Add(t.V2).Normalize()
}

// Vertices returns the three vertices in order.
func (t Triangle) Vertices() [3]Vec3 { return [3]Vec3{t.V0, t.V1, t.V2} }

// Area returns the spherical area (solid angle, steradians) of the
// triangle via Girard's theorem.
func (t Triangle) Area() float64 {
	a := t.V1.Angle(t.V2)
	b := t.V0.Angle(t.V2)
	c := t.V0.Angle(t.V1)
	s := (a + b + c) / 2
	// L'Huilier's formula, numerically stable for small triangles.
	tanE4 := math.Sqrt(math.Max(0, math.Tan(s/2)*math.Tan((s-a)/2)*math.Tan((s-b)/2)*math.Tan((s-c)/2)))
	return 4 * math.Atan(tanE4)
}

// RelationToCap classifies the triangle against a cap.
type Relation int

const (
	// Disjoint means the triangle and cap share no points (conservatively:
	// the test may report Partial for some disjoint pairs, never the
	// reverse).
	Disjoint Relation = iota
	// Partial means the triangle and cap may overlap without containment.
	Partial
	// Inside means the triangle lies entirely within the cap.
	Inside
)

func (r Relation) String() string {
	switch r {
	case Disjoint:
		return "disjoint"
	case Partial:
		return "partial"
	case Inside:
		return "inside"
	default:
		return fmt.Sprintf("Relation(%d)", int(r))
	}
}

// CapRelation classifies triangle t against cap c. The result is
// conservative in the direction required by spatial filtering: Inside and
// Disjoint are exact; any uncertain case is reported as Partial, so a
// coverage computed from it never drops a matching region.
func (t Triangle) CapRelation(c Cap) Relation {
	in := 0
	if c.Contains(t.V0) {
		in++
	}
	if c.Contains(t.V1) {
		in++
	}
	if c.Contains(t.V2) {
		in++
	}
	switch in {
	case 3:
		// All vertices inside. The triangle is fully inside unless the cap
		// is smaller than the triangle's inscribed region, which cannot
		// happen when all vertices are inside a convex cap of radius < pi/2
		// ... except for caps whose complement pokes through an edge; for
		// caps with CosR >= 0 the region is convex so we are exact.
		if c.CosR >= 0 {
			return Inside
		}
		// Huge cap (> 90 deg): check edges conservatively.
		anti := Cap{Center: c.Center.Scale(-1), CosR: -c.CosR}
		if anti.IntersectsArc(t.V0, t.V1) || anti.IntersectsArc(t.V1, t.V2) || anti.IntersectsArc(t.V2, t.V0) {
			return Partial
		}
		return Inside
	case 1, 2:
		return Partial
	}
	// No vertex inside: the cap may still poke through an edge or sit
	// entirely within the triangle.
	if t.Contains(c.Center) {
		return Partial
	}
	if c.IntersectsArc(t.V0, t.V1) || c.IntersectsArc(t.V1, t.V2) || c.IntersectsArc(t.V2, t.V0) {
		return Partial
	}
	return Disjoint
}
