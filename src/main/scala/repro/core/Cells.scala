package repro.core

/** Syntactic cell typing and the color encoding of paper Table 1.
  *
  * Mondrian substitutes semantic cell types (data / metadata) with
  * *syntactic* types inferred from the literal cell content, and maps each
  * type to an RGB color so that a spreadsheet becomes an image: one cell,
  * one pixel. Sub-types of the same fundamental type share a primary color
  * and differ only in shade, so that histogram cross-correlation considers
  * them closer than cells of different fundamental types (paper §4.2).
  */
object Cells {

  /** Fundamental syntactic types (paper §4.1). */
  sealed trait Fundamental
  case object EmptyT    extends Fundamental
  case object NumberT   extends Fundamental
  case object DatetimeT extends Fundamental
  case object StringT   extends Fundamental

  /** Refined sub-types; ordinals are stable and used as compact codes. */
  sealed abstract class SynType(val code: Int, val fundamental: Fundamental, val rgb: (Int, Int, Int)) {
    /** Human-readable name matching paper Table 1. */
    def name: String = toString.stripSuffix("$")
  }
  // Sub-types of one fundamental type share their primary channel at (near)
  // full intensity, so under 64-bin-per-channel histograms they fall into
  // the SAME primary-channel bin and differ only on the secondary channels;
  // all other channel values are chosen to collide in NO bin across
  // fundamentals. This realizes the paper's design that "cells with the
  // same fundamental data type but different sub-types are more similar in
  // the color space than cells from different fundamental types" under
  // histogram cross-correlation (arbitrary shades in disjoint bins would
  // not be). Documented as a substitution in DESIGN.md.
  case object Empty         extends SynType(0, EmptyT,    (255, 255, 255)) // White
  case object IntegerSt     extends SynType(1, NumberT,   (100, 100, 248)) // Light Blue
  case object FloatSt       extends SynType(2, NumberT,   (40,  40,  248)) // Dark Blue
  case object TimeSt        extends SynType(3, DatetimeT, (80,  244, 80))  // Light Green
  case object DateSt        extends SynType(4, DatetimeT, (20,  244, 20))  // Dark Green
  case object UppercaseSt   extends SynType(5, StringT,   (248, 4,   4))   // Maroon
  case object LowercaseSt   extends SynType(6, StringT,   (248, 120, 120)) // Salmon Red
  case object TitlecaseSt   extends SynType(7, StringT,   (248, 60,  60))  // Tomato Red
  case object GenericSt     extends SynType(8, StringT,   (248, 180, 180)) // Scarlet Red

  val all: Seq[SynType] =
    Seq(Empty, IntegerSt, FloatSt, TimeSt, DateSt, UppercaseSt, LowercaseSt, TitlecaseSt, GenericSt)

  /** Infers the syntactic type of a raw cell string (paper §4.1) in one
    * pass over the string trimmed as by `String.trim` (characters up to
    * U+0020 dropped at both ends). The first rule that holds gives the type,
    * where `\d` is an ASCII digit:
    *  - nothing left: Empty;
    *  - `\d{1,2}:\d{2}(:\d{2})?`: Time;
    *  - `\d{1,4}[/\-.]\d{1,2}[/\-.]\d{1,4}`: Date, so "17/9/20" is a date,
    *    not three integers;
    *  - `[+-]?\d+`: Integer;
    *  - `[+-]?(\d+[.,]\d*|[.,]\d+)([eE][+-]?\d+)?`: Float;
    *  - no letter: Generic; all letters uppercase: Uppercase; all
    *    lowercase: Lowercase; in every word (split at `[ \t\n\x0B\f\r]`)
    *    the first letter uppercase and the others lowercase: Titlecase;
    *    otherwise Generic.
    * The pass runs one small automaton per pattern and tracks the letters'
    * case; the patterns as regular expressions are the tests' reference.
    */
  def synType(raw: String): SynType = {
    if (raw == null) return Empty
    var from = 0; var to = raw.length
    while (from < to && raw.charAt(from) <= ' ') from += 1
    while (to > from && raw.charAt(to - 1) <= ' ') to -= 1
    if (from == to) return Empty
    var time = 0; var date = 0; var number = Start
    var letters = false; var allUpper = true; var allLower = true
    var title = true; var firstInWord = true
    var i = from
    while (i < to) {
      val c = raw.charAt(i)
      time = stepTime(time, c); date = stepDate(date, c); number = stepNumber(number, c)
      if (Character.isLetter(c)) {
        val upper = Character.isUpperCase(c); val lower = Character.isLowerCase(c)
        letters = true; allUpper &&= upper; allLower &&= lower
        title &&= (if (firstInWord) upper else lower)
        firstInWord = false
      } else if (c == ' ' || (c >= '\t' && c <= '\r')) firstInWord = true
      i += 1
    }
    if (time != Dead && (time >> 2) >= 1 && (time & 3) == 2) TimeSt
    else if (date != Dead && (date >> 3) == 2 && (date & 7) >= 1) DateSt
    else if (number == IntDigits) IntegerSt
    else if (number == PointAfterDigits || number == Fraction || number == ExpDigits) FloatSt
    else if (!letters) GenericSt
    else if (allUpper) UppercaseSt
    else if (allLower) LowercaseSt
    else if (title) TitlecaseSt
    else GenericSt
  }

  private final val Dead = -1

  private def isDigit(c: Char): Boolean = c >= '0' && c <= '9'

  /** `\d{1,2}:\d{2}(:\d{2})?` after `c`; the state is 4 × field + digits
    * in the field.
    */
  private def stepTime(s: Int, c: Char): Int = {
    val field = s >> 2; val n = s & 3
    if (s == Dead) Dead
    else if (isDigit(c)) { if (n < 2) s + 1 else Dead }
    else if (c == ':' && field < 2 && n >= (if (field == 0) 1 else 2)) (field + 1) << 2
    else Dead
  }

  /** `\d{1,4}[/\-.]\d{1,2}[/\-.]\d{1,4}` after `c`; the state is
    * 8 × field + digits in the field.
    */
  private def stepDate(s: Int, c: Char): Int = {
    val field = s >> 3; val n = s & 7
    if (s == Dead) Dead
    else if (isDigit(c)) { if (n < (if (field == 1) 2 else 4)) s + 1 else Dead }
    else if ((c == '/' || c == '-' || c == '.') && field < 2 && n >= 1) (field + 1) << 3
    else Dead
  }

  // States of `[+-]?(\d+[.,]\d*|[.,]\d+)([eE][+-]?\d+)?`; its prefix
  // `[+-]?\d+` ends in IntDigits, the Integer pattern.
  private final val Start = 0
  private final val Sign = 1
  private final val IntDigits = 2
  private final val PointAfterDigits = 3
  private final val Point = 4
  private final val Fraction = 5
  private final val Exponent = 6
  private final val ExpSign = 7
  private final val ExpDigits = 8

  private def stepNumber(s: Int, c: Char): Int = {
    val point = c == '.' || c == ','
    val sign = c == '+' || c == '-'
    s match {
      case Start | Sign =>
        if (isDigit(c)) IntDigits else if (point) Point else if (s == Start && sign) Sign else Dead
      case IntDigits => if (isDigit(c)) IntDigits else if (point) PointAfterDigits else Dead
      case PointAfterDigits | Fraction =>
        if (isDigit(c)) Fraction else if (c == 'e' || c == 'E') Exponent else Dead
      case Point => if (isDigit(c)) Fraction else Dead
      case Exponent => if (isDigit(c)) ExpDigits else if (sign) ExpSign else Dead
      case ExpSign | ExpDigits => if (isDigit(c)) ExpDigits else Dead
      case _ => Dead
    }
  }
}
