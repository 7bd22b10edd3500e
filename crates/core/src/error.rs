use std::fmt;

/// Errors from building or running adaptive clock systems.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// The set-point must be positive (it is a number of stages).
    InvalidSetPoint {
        /// The rejected value.
        value: i64,
    },
    /// Ring-oscillator length bounds are inconsistent or cannot reach the
    /// set-point.
    InvalidRoBounds {
        /// Minimum length requested.
        min: i64,
        /// Maximum length requested.
        max: i64,
        /// The set-point the bounds must bracket.
        setpoint: i64,
    },
    /// The CDN delay must be non-negative and finite.
    InvalidCdnDelay {
        /// The rejected value.
        value: f64,
    },
    /// A system needs at least one TDC sensor.
    NoSensors,
    /// IIR coefficients violate the paper's Eq. (10) constraint
    /// `k* = (Σ kᵢ)⁻¹` (required for zero steady-state error).
    ConstraintViolation {
        /// `Σ kᵢ` actually provided.
        gain_sum: f64,
        /// `1/k*` actually provided.
        k_star_inv: f64,
    },
    /// IIR configuration used an empty feedback tap set.
    EmptyTaps,
    /// A gain was not a power of two (the integer control block only
    /// supports shift-implementable gains, as in the paper's Fig. 5).
    NotPowerOfTwo {
        /// The offending gain value.
        value: f64,
    },
    /// Simulation produced a non-finite quantity.
    NonFinite {
        /// Which signal went non-finite.
        what: &'static str,
    },
    /// A noise / jitter standard deviation was negative or non-finite.
    InvalidNoise {
        /// The offending sigma.
        sigma: f64,
    },
    /// A shared multi-offset run cannot equal the per-offset runs: the
    /// scheme's controller reads τ, so each offset steers its own loop.
    ClosedLoop {
        /// The scheme's label.
        scheme: &'static str,
    },
    /// A shared multi-offset run needs exactly one sensor, whose static
    /// offset each lane replaces.
    NotOneSensor {
        /// The number of sensors the system has.
        sensors: usize,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidSetPoint { value } => {
                write!(f, "set-point must be positive, got {value}")
            }
            Error::InvalidRoBounds { min, max, setpoint } => write!(
                f,
                "RO length bounds [{min}, {max}] must satisfy 0 < min <= setpoint ({setpoint}) <= max"
            ),
            Error::InvalidCdnDelay { value } => {
                write!(f, "CDN delay must be finite and >= 0, got {value}")
            }
            Error::NoSensors => write!(f, "at least one TDC sensor is required"),
            Error::ConstraintViolation { gain_sum, k_star_inv } => write!(
                f,
                "Eq. (10) violated: sum of taps is {gain_sum} but 1/k* is {k_star_inv}"
            ),
            Error::EmptyTaps => write!(f, "IIR control block needs at least one feedback tap"),
            Error::NotPowerOfTwo { value } => {
                write!(f, "gain {value} is not a power of two")
            }
            Error::NonFinite { what } => write!(f, "non-finite value in {what}"),
            Error::InvalidNoise { sigma } => {
                write!(f, "noise sigma must be finite and non-negative, got {sigma}")
            }
            Error::ClosedLoop { scheme } => write!(
                f,
                "{scheme} reads τ, so one run cannot serve several offsets"
            ),
            Error::NotOneSensor { sensors } => write!(
                f,
                "a shared multi-offset run needs exactly one sensor, got {sensors}"
            ),
        }
    }
}

impl std::error::Error for Error {}
