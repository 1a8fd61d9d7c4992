//! Signal data types.
//!
//! AccMoS-RS supports the discrete-time Simulink numeric types: `boolean`,
//! the fixed-width integers, and the two IEEE-754 floating types (`single`,
//! `double`). Each [`DataType`] knows its C spelling and width so that the
//! interpreter, the code generator and the diagnosis template library agree
//! on widths and conversion semantics.

use std::fmt;
use std::str::FromStr;

/// A scalar signal data type.
///
/// # Examples
///
/// ```
/// use accmos_ir::DataType;
///
/// let t: DataType = "int32".parse()?;
/// assert_eq!(t, DataType::I32);
/// assert_eq!(t.c_name(), "int32_t");
/// assert!(t.is_signed());
/// # Ok::<(), accmos_ir::ParseDataTypeError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DataType {
    /// `boolean` — one byte, values 0 or 1.
    Bool,
    /// `int8`
    I8,
    /// `int16`
    I16,
    /// `int32`
    I32,
    /// `int64`
    I64,
    /// `uint8`
    U8,
    /// `uint16`
    U16,
    /// `uint32`
    U32,
    /// `uint64`
    U64,
    /// `single` — IEEE-754 binary32.
    F32,
    /// `double` — IEEE-754 binary64.
    F64,
}

impl DataType {
    /// All supported data types, in a stable order.
    pub const ALL: [DataType; 11] = [
        DataType::Bool,
        DataType::I8,
        DataType::I16,
        DataType::I32,
        DataType::I64,
        DataType::U8,
        DataType::U16,
        DataType::U32,
        DataType::U64,
        DataType::F32,
        DataType::F64,
    ];

    /// Width of the type in bits (8 for `Bool`, matching its storage size).
    pub fn bits(self) -> u32 {
        match self {
            DataType::Bool | DataType::I8 | DataType::U8 => 8,
            DataType::I16 | DataType::U16 => 16,
            DataType::I32 | DataType::U32 | DataType::F32 => 32,
            DataType::I64 | DataType::U64 | DataType::F64 => 64,
        }
    }

    /// Storage size in bytes.
    pub fn size_bytes(self) -> usize {
        (self.bits() / 8) as usize
    }

    /// `true` for the signed integer types.
    pub fn is_signed(self) -> bool {
        matches!(self, DataType::I8 | DataType::I16 | DataType::I32 | DataType::I64)
    }

    /// `true` for the unsigned integer types (excluding `Bool`).
    pub fn is_unsigned(self) -> bool {
        matches!(self, DataType::U8 | DataType::U16 | DataType::U32 | DataType::U64)
    }

    /// `true` for any integer type, signed or unsigned (excluding `Bool`).
    pub fn is_integer(self) -> bool {
        self.is_signed() || self.is_unsigned()
    }

    /// `true` for `single` and `double`.
    pub fn is_float(self) -> bool {
        matches!(self, DataType::F32 | DataType::F64)
    }

    /// `true` for `boolean`.
    pub fn is_bool(self) -> bool {
        self == DataType::Bool
    }

    /// The Simulink-style name, as stored in MDLX model files.
    pub fn simulink_name(self) -> &'static str {
        match self {
            DataType::Bool => "boolean",
            DataType::I8 => "int8",
            DataType::I16 => "int16",
            DataType::I32 => "int32",
            DataType::I64 => "int64",
            DataType::U8 => "uint8",
            DataType::U16 => "uint16",
            DataType::U32 => "uint32",
            DataType::U64 => "uint64",
            DataType::F32 => "single",
            DataType::F64 => "double",
        }
    }

    /// The `<stdint.h>` spelling used by the C backend.
    pub fn c_name(self) -> &'static str {
        match self {
            DataType::Bool => "uint8_t",
            DataType::I8 => "int8_t",
            DataType::I16 => "int16_t",
            DataType::I32 => "int32_t",
            DataType::I64 => "int64_t",
            DataType::U8 => "uint8_t",
            DataType::U16 => "uint16_t",
            DataType::U32 => "uint32_t",
            DataType::U64 => "uint64_t",
            DataType::F32 => "float",
            DataType::F64 => "double",
        }
    }

    /// Short mnemonic used in result-protocol lines and signal monitors
    /// (`i32`, `f64`, ... as in the paper's Figure 5 `outputCollect` call).
    pub fn mnemonic(self) -> &'static str {
        match self {
            DataType::Bool => "b8",
            DataType::I8 => "i8",
            DataType::I16 => "i16",
            DataType::I32 => "i32",
            DataType::I64 => "i64",
            DataType::U8 => "u8",
            DataType::U16 => "u16",
            DataType::U32 => "u32",
            DataType::U64 => "u64",
            DataType::F32 => "f32",
            DataType::F64 => "f64",
        }
    }

    /// Smallest representable value, as `f64` (approximate for 64-bit ints).
    pub fn min_f64(self) -> f64 {
        match self {
            DataType::Bool => 0.0,
            DataType::I8 => i8::MIN as f64,
            DataType::I16 => i16::MIN as f64,
            DataType::I32 => i32::MIN as f64,
            DataType::I64 => i64::MIN as f64,
            DataType::U8 | DataType::U16 | DataType::U32 | DataType::U64 => 0.0,
            DataType::F32 => f32::MIN as f64,
            DataType::F64 => f64::MIN,
        }
    }

    /// Largest representable value, as `f64` (approximate for 64-bit ints).
    pub fn max_f64(self) -> f64 {
        match self {
            DataType::Bool => 1.0,
            DataType::I8 => i8::MAX as f64,
            DataType::I16 => i16::MAX as f64,
            DataType::I32 => i32::MAX as f64,
            DataType::I64 => i64::MAX as f64,
            DataType::U8 => u8::MAX as f64,
            DataType::U16 => u16::MAX as f64,
            DataType::U32 => u32::MAX as f64,
            DataType::U64 => u64::MAX as f64,
            DataType::F32 => f32::MAX as f64,
            DataType::F64 => f64::MAX,
        }
    }

    /// Whether converting a value of `self` into `target` can lose range
    /// (the *downcast* condition of the paper's Figure 4, line 4: a narrower
    /// output than input).
    pub fn downcast_to(self, target: DataType) -> bool {
        if self == target {
            return false;
        }
        match (self.is_float(), target.is_float()) {
            // float -> narrower float
            (true, true) => target.bits() < self.bits(),
            // float -> any integer always risks range loss
            (true, false) => true,
            // integer -> float: 64-bit ints do not fit f64 exactly but that
            // is precision, not range; not a downcast.
            (false, true) => false,
            (false, false) => {
                if target == DataType::Bool {
                    return self != DataType::Bool;
                }
                if self == DataType::Bool {
                    return false;
                }
                // Narrower width, or sign change that shrinks range.
                target.bits() < self.bits()
                    || (self.is_signed() != target.is_signed() && target.bits() <= self.bits())
            }
        }
    }

    /// Whether converting `self` into `target` can lose precision without
    /// losing range (e.g. `double -> single`, `int64 -> double`, or any
    /// float -> integer truncation).
    pub fn precision_loss_to(self, target: DataType) -> bool {
        if self == target {
            return false;
        }
        match (self.is_float(), target.is_float()) {
            (true, true) => target.bits() < self.bits(),
            (true, false) => true,
            (false, true) => {
                // Mantissa of f32 is 24 bits, f64 is 53 bits.
                let mantissa = if target == DataType::F32 { 24 } else { 53 };
                self.is_integer() && self.bits() > mantissa
            }
            (false, false) => false,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.simulink_name())
    }
}

impl Default for DataType {
    /// Simulink's default signal type is `double`.
    fn default() -> Self {
        DataType::F64
    }
}

/// Error returned when parsing a [`DataType`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDataTypeError {
    text: String,
}

impl ParseDataTypeError {
    /// The rejected input text.
    pub fn text(&self) -> &str {
        &self.text
    }
}

impl fmt::Display for ParseDataTypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown data type `{}`", self.text)
    }
}

impl std::error::Error for ParseDataTypeError {}

impl FromStr for DataType {
    type Err = ParseDataTypeError;

    /// Accepts both Simulink names (`int32`, `single`, `boolean`) and Rust
    /// mnemonics (`i32`, `f32`, `bool`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let t = match s {
            "boolean" | "bool" | "b8" => DataType::Bool,
            "int8" | "i8" => DataType::I8,
            "int16" | "i16" => DataType::I16,
            "int32" | "i32" => DataType::I32,
            "int64" | "i64" => DataType::I64,
            "uint8" | "u8" => DataType::U8,
            "uint16" | "u16" => DataType::U16,
            "uint32" | "u32" => DataType::U32,
            "uint64" | "u64" => DataType::U64,
            "single" | "f32" | "float" => DataType::F32,
            "double" | "f64" => DataType::F64,
            _ => return Err(ParseDataTypeError { text: s.to_owned() }),
        };
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip_all() {
        for t in DataType::ALL {
            assert_eq!(t.simulink_name().parse::<DataType>().unwrap(), t);
            assert_eq!(t.mnemonic().parse::<DataType>().unwrap(), t);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("quadruple".parse::<DataType>().is_err());
        let err = "x".parse::<DataType>().unwrap_err();
        assert_eq!(err.text(), "x");
    }

    #[test]
    fn widths_are_consistent() {
        for t in DataType::ALL {
            assert_eq!(t.size_bytes() * 8, t.bits() as usize);
        }
        assert_eq!(DataType::I64.bits(), 64);
        assert_eq!(DataType::Bool.size_bytes(), 1);
    }

    #[test]
    fn classification_partition() {
        for t in DataType::ALL {
            let classes =
                [t.is_bool(), t.is_float(), t.is_signed(), t.is_unsigned()].iter().filter(|b| **b).count();
            assert_eq!(classes, 1, "{t} must be in exactly one class");
        }
    }

    #[test]
    fn downcast_relations() {
        use DataType::*;
        assert!(I32.downcast_to(I16));
        assert!(I32.downcast_to(U32)); // sign change, same width
        assert!(F64.downcast_to(F32));
        assert!(F64.downcast_to(I64)); // float -> int loses range
        assert!(!I16.downcast_to(I32));
        assert!(!I32.downcast_to(I32));
        assert!(!I32.downcast_to(F64));
        assert!(!Bool.downcast_to(I8));
        assert!(I8.downcast_to(Bool));
    }

    #[test]
    fn precision_loss_relations() {
        use DataType::*;
        assert!(F64.precision_loss_to(F32));
        assert!(F32.precision_loss_to(I32));
        assert!(I64.precision_loss_to(F64)); // 64 > 53 mantissa bits
        assert!(I32.precision_loss_to(F32)); // 32 > 24 mantissa bits
        assert!(!I16.precision_loss_to(F32));
        assert!(!I32.precision_loss_to(F64));
        assert!(!I32.precision_loss_to(I16)); // that is a downcast, not precision
    }

    #[test]
    fn min_max_are_ordered() {
        for t in DataType::ALL {
            assert!(t.min_f64() <= t.max_f64());
        }
        assert_eq!(DataType::U8.max_f64(), 255.0);
        assert_eq!(DataType::I8.min_f64(), -128.0);
    }

    #[test]
    fn display_uses_simulink_name() {
        assert_eq!(DataType::F32.to_string(), "single");
        assert_eq!(DataType::default(), DataType::F64);
    }
}
